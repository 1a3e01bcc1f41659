//! The query index: greedy beam search for out-of-sample KNN queries.
//!
//! A search starts where the query belongs: bound to the graph's
//! [`EntryIndex`] ([`QueryIndex::with_entries`]), the index routes the
//! query profile through Step 1's FastRandomHash functions and seeds the
//! beam with members of the clusters it lands in (see
//! `cnc_graph::entry`); without one — or for a profile routing places
//! nowhere — it starts at `entry_points` random users.
//!
//! Beam expansion is **batched**: each expanded node's unvisited
//! neighbours are scored through one
//! [`cnc_similarity::kernel::one_vs_many`] call against a monomorphized
//! query kernel — exact Jaccard over the dataset's profiles by default
//! ([`QueryIndex::new`]), or fixed-width GoldFinger fingerprints
//! ([`QueryIndex::with_goldfinger`], the serving path) with the query
//! fingerprinted once per search. Both modes return results and
//! comparison counts identical to a per-candidate scalar loop (locked by
//! the equivalence tests below).

use crate::beam::BeamSearchConfig;
use crate::search::{batched_beam_search, pick_seeds, BeamSolve};
use cnc_dataset::{Dataset, ItemId, UserId};
use cnc_graph::{EntryIndex, KnnGraph, Neighbor, NeighborList};
use cnc_similarity::kernel::{solve_query_words, RawQueryKernel};
use cnc_similarity::{GoldFinger, Jaccard};

/// One query of a [`QueryIndex::search_batch`] call.
#[derive(Clone, Copy, Debug)]
pub struct BatchQuery<'q> {
    /// The sorted, deduplicated query profile.
    pub profile: &'q [ItemId],
    /// How many neighbours to return.
    pub k: usize,
    /// The seed of the random fill — the same seed a single-query
    /// [`QueryIndex::search`] would be given.
    pub seed: u64,
}

/// The answer to one query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The (approximate) k nearest users, best first.
    pub neighbors: Vec<Neighbor>,
    /// Similarity computations spent on this query.
    pub comparisons: usize,
    /// Seeds the search took from the clusters the query was routed to.
    pub routed_seeds: usize,
    /// Seeds drawn at random because routing supplied too few.
    pub random_seeds: usize,
}

/// Reusable per-thread scratch state (visited marks survive across queries
/// as epochs, and the candidate batch and routing buffers keep their
/// allocations, so repeated queries allocate almost nothing). A searcher
/// may outlive the index it was created from: the visited set grows on
/// demand, so `cnc-serve` can keep one searcher per client across epoch
/// swaps to larger graphs.
pub struct Searcher {
    pub(crate) visited: crate::beam::VisitedSet,
    /// The seeds, then each expansion's candidates.
    pub(crate) batch: Vec<UserId>,
    /// Routing scratch: the query's item hashes under one function.
    pub(crate) hashes: Vec<u32>,
    /// Routing scratch: the clusters the query routed to.
    pub(crate) clusters: Vec<u32>,
    /// Seeding scratch: per user, how many counted clusters hold it (one
    /// byte per user, grown on demand; zero outside a seeding pass).
    pub(crate) counts: Vec<u8>,
    /// Seeding scratch: the counted clusters' members, in first-appearance
    /// order.
    pub(crate) members: Vec<UserId>,
}

impl Searcher {
    /// Scratch sized for a graph of `n` users.
    pub(crate) fn new(n: usize) -> Self {
        Searcher {
            visited: crate::beam::VisitedSet::new(n),
            batch: Vec::new(),
            hashes: Vec::new(),
            clusters: Vec::new(),
            counts: Vec::new(),
            members: Vec::new(),
        }
    }
}

/// An immutable KNN-query index over a dataset and its KNN graph.
pub struct QueryIndex<'a> {
    dataset: &'a Dataset,
    graph: &'a KnnGraph,
    goldfinger: Option<&'a GoldFinger>,
    entries: Option<&'a EntryIndex>,
}

impl<'a> QueryIndex<'a> {
    /// Binds a dataset and a graph built on it (by C² or any baseline);
    /// queries are scored with exact Jaccard over the raw profiles.
    ///
    /// # Panics
    /// Panics if the graph and dataset disagree on the user count.
    pub fn new(dataset: &'a Dataset, graph: &'a KnnGraph) -> Self {
        assert_eq!(
            dataset.num_users(),
            graph.num_users(),
            "index requires the graph built on this dataset"
        );
        QueryIndex { dataset, graph, goldfinger: None, entries: None }
    }

    /// Binds a dataset, its graph, and a GoldFinger fingerprint set;
    /// queries are scored with the fingerprint estimator through the
    /// fixed-width kernels — the configuration `cnc-serve` serves from
    /// (the graph was built on the same fingerprints, so query scores are
    /// consistent with the stored edge similarities).
    ///
    /// # Panics
    /// Panics if the graph, dataset and fingerprints disagree on the user
    /// count.
    pub fn with_goldfinger(
        dataset: &'a Dataset,
        graph: &'a KnnGraph,
        goldfinger: &'a GoldFinger,
    ) -> Self {
        assert_eq!(
            dataset.num_users(),
            graph.num_users(),
            "index requires the graph built on this dataset"
        );
        assert_eq!(
            goldfinger.num_users(),
            dataset.num_users(),
            "fingerprints must cover the dataset"
        );
        QueryIndex { dataset, graph, goldfinger: Some(goldfinger), entries: None }
    }

    /// Binds the graph's entry index: searches start at members of the
    /// clusters the query profile routes to instead of at random users.
    ///
    /// # Panics
    /// Panics if the index names users the graph does not have.
    pub fn with_entries(mut self, entries: &'a EntryIndex) -> Self {
        assert!(
            entries.user_bound() <= self.graph.num_users(),
            "entry index must be built on this graph's users"
        );
        self.entries = Some(entries);
        self
    }

    /// Allocates reusable scratch for this index.
    pub fn searcher(&self) -> Searcher {
        Searcher::new(self.dataset.num_users())
    }

    /// Convenience one-shot search (allocates scratch internally).
    pub fn search(
        &self,
        query: &[ItemId],
        k: usize,
        config: &BeamSearchConfig,
        seed: u64,
    ) -> QueryResult {
        let mut searcher = self.searcher();
        self.search_with(&mut searcher, query, k, config, seed)
    }

    /// Beam search: returns the approximate k most similar users to the
    /// (sorted) `query` profile.
    ///
    /// # Panics
    /// Panics if the configuration is invalid for this `k` (see
    /// [`BeamSearchConfig::validate`]) or the query profile is unsorted.
    pub fn search_with(
        &self,
        searcher: &mut Searcher,
        query: &[ItemId],
        k: usize,
        config: &BeamSearchConfig,
        seed: u64,
    ) -> QueryResult {
        if let Err(msg) = config.validate(k) {
            panic!("invalid beam search config: {msg}");
        }
        debug_assert!(query.windows(2).all(|w| w[0] < w[1]), "query profile must be sorted");
        let routed_seeds =
            pick_seeds(self.entries, query, self.dataset.num_users(), config, seed, searcher);
        let random_seeds = searcher.batch.len() - routed_seeds;
        let (beam, comparisons) = match self.goldfinger {
            None => batched_beam_search(
                &RawQueryKernel::new(self.dataset, query),
                self.graph,
                searcher,
                config,
            ),
            Some(gf) => {
                let qwords = gf.fingerprint_profile(query);
                solve_query_words(
                    gf.words(),
                    gf.words_per_user(),
                    &qwords,
                    BeamSolve { graph: self.graph, searcher, config },
                )
            }
        };
        let mut neighbors = beam.sorted();
        neighbors.truncate(k);
        QueryResult { neighbors, comparisons, routed_seeds, random_seeds }
    }

    /// Answers every query in `queries`, in order, on one reused
    /// [`Searcher`]: per query exactly [`QueryIndex::search_with`] with
    /// the same profile, `k` and seed, so neighbours, comparison counts
    /// and seed counts equal the single-query call.
    ///
    /// # Panics
    /// Panics if the configuration is invalid for any query's `k` or a
    /// profile is unsorted.
    pub fn search_batch(
        &self,
        queries: &[BatchQuery],
        config: &BeamSearchConfig,
    ) -> Vec<QueryResult> {
        let mut searcher = self.searcher();
        queries
            .iter()
            .map(|q| self.search_with(&mut searcher, q.profile, q.k, config, q.seed))
            .collect()
    }

    /// Exact reference answer by scanning every user with raw Jaccard
    /// (for recall checks; independent of the scoring mode).
    pub fn exact_search(&self, query: &[ItemId], k: usize) -> QueryResult {
        let mut list = NeighborList::new(k.max(1));
        for (u, profile) in self.dataset.iter() {
            list.insert(u, Jaccard::similarity(query, profile) as f32);
        }
        QueryResult {
            neighbors: list.sorted(),
            comparisons: self.dataset.num_users(),
            routed_seeds: 0,
            random_seeds: 0,
        }
    }

    /// Recall of an approximate answer against the exact one
    /// (|approx ∩ exact| / |exact|).
    pub fn recall(approx: &QueryResult, exact: &QueryResult) -> f64 {
        if exact.neighbors.is_empty() {
            return 1.0;
        }
        let exact_ids: Vec<UserId> = exact.neighbors.iter().map(|n| n.user).collect();
        let hit = approx.neighbors.iter().filter(|n| exact_ids.contains(&n.user)).count();
        hit as f64 / exact_ids.len() as f64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::beam::VisitedSet;
    use cnc_baselines::{BruteForce, BuildContext, KnnAlgorithm};
    use cnc_dataset::SyntheticConfig;
    use cnc_graph::SplitTree;
    use cnc_similarity::{SeededHash, SimilarityBackend, SimilarityData};
    use std::collections::{BTreeMap, HashMap};

    /// A split-free entry index over `ds`: one bucket per `H(u)` under each
    /// seeded function (Algorithm 1 without the recursive splitting, which
    /// `cnc-core` and `tests/entry_index.rs` exercise).
    pub(crate) fn bucket_entries(ds: &Dataset, seeds: &[u64], b: u32) -> EntryIndex {
        let mut tree = SplitTree::new(seeds.len());
        let mut clusters: Vec<Vec<UserId>> = Vec::new();
        for (f, &seed) in seeds.iter().enumerate() {
            let hash = SeededHash::new(seed);
            let mut buckets: BTreeMap<u32, Vec<UserId>> = BTreeMap::new();
            for (u, profile) in ds.iter() {
                if let Some(h) = profile.iter().map(|&i| hash.hash_range(i, b)).min() {
                    buckets.entry(h).or_default().push(u);
                }
            }
            for (eta, users) in buckets {
                tree.leaf(f as u32, eta, clusters.len());
                clusters.push(users);
            }
        }
        EntryIndex::build(b, seeds, &tree, &clusters)
    }

    /// The seeds the shared routine picks for one search, with how many
    /// of them were routed.
    pub(crate) fn seeds_of(
        entries: Option<&EntryIndex>,
        query: &[ItemId],
        n: usize,
        config: &BeamSearchConfig,
        seed: u64,
    ) -> (Vec<UserId>, usize) {
        let mut searcher = Searcher::new(n);
        let routed = pick_seeds(entries, query, n, config, seed, &mut searcher);
        (searcher.batch, routed)
    }

    fn setup() -> (Dataset, KnnGraph) {
        let mut cfg = SyntheticConfig::small(808);
        cfg.num_users = 500;
        cfg.num_items = 400;
        cfg.communities = 10;
        cfg.mean_profile = 25.0;
        cfg.min_profile = 10;
        let ds = cfg.generate();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let ctx = BuildContext { dataset: &ds, sim: &sim, k: 12, threads: 0, seed: 1 };
        let graph = BruteForce.build(&ctx);
        (ds, graph)
    }

    /// The seed implementation's per-candidate scalar loop, kept as the
    /// reference the batched path must reproduce exactly — neighbours
    /// *and* comparison counts — started from the seeds the shared
    /// routine picks (`seeds_of`). `score` is the per-pair oracle: raw
    /// Jaccard or the GoldFinger estimate.
    fn scalar_reference<F: Fn(UserId) -> f32>(
        graph: &KnnGraph,
        n: usize,
        k: usize,
        config: &BeamSearchConfig,
        (seeds, routed_seeds): (Vec<UserId>, usize),
        score: F,
    ) -> QueryResult {
        let mut comparisons = 0usize;
        let mut visited = VisitedSet::new(n);
        visited.clear();
        let mut beam = NeighborList::new(config.beam_width);
        let mut frontier: std::collections::BinaryHeap<crate::search::Candidate> =
            std::collections::BinaryHeap::new();
        for &user in &seeds {
            assert!(visited.insert(user), "seeds must be distinct");
            let sim = score(user);
            comparisons += 1;
            beam.insert(user, sim);
            frontier.push(crate::search::Candidate { sim, user });
        }
        while let Some(best) = frontier.pop() {
            if beam.is_full() && best.sim < beam.worst_sim() {
                break;
            }
            for edge in graph.neighbors(best.user).iter() {
                if !visited.insert(edge.user) {
                    continue;
                }
                if config.max_comparisons > 0 && comparisons >= config.max_comparisons {
                    frontier.clear();
                    break;
                }
                let sim = score(edge.user);
                comparisons += 1;
                if beam.insert(edge.user, sim) {
                    frontier.push(crate::search::Candidate { sim, user: edge.user });
                }
            }
        }
        let mut neighbors = beam.sorted();
        neighbors.truncate(k);
        let random_seeds = seeds.len() - routed_seeds;
        QueryResult { neighbors, comparisons, routed_seeds, random_seeds }
    }

    /// `None` (random seeds) and a two-function bucket index (routed).
    fn seedings(ds: &Dataset) -> [Option<EntryIndex>; 2] {
        [None, Some(bucket_entries(ds, &[0xE1, 0xE2], 64))]
    }

    fn bind<'a>(index: QueryIndex<'a>, entries: Option<&'a EntryIndex>) -> QueryIndex<'a> {
        match entries {
            Some(entries) => index.with_entries(entries),
            None => index,
        }
    }

    #[test]
    fn batched_raw_search_is_identical_to_the_scalar_path() {
        let (ds, graph) = setup();
        let n = ds.num_users();
        for entries in seedings(&ds) {
            let entries = entries.as_ref();
            let index = bind(QueryIndex::new(&ds, &graph), entries);
            for (q, max_comparisons) in [(0usize, 0usize), (17, 0), (42, 120), (99, 30), (7, 1)] {
                let query: Vec<u32> = ds.profile((q * 5 % 500) as u32).to_vec();
                let config = BeamSearchConfig { beam_width: 32, entry_points: 6, max_comparisons };
                let batched = index.search(&query, 10, &config, q as u64);
                let seeds = seeds_of(entries, &query, n, &config, q as u64);
                let scalar = scalar_reference(&graph, n, 10, &config, seeds, |u| {
                    Jaccard::similarity(&query, ds.profile(u)) as f32
                });
                assert_eq!(
                    batched.neighbors, scalar.neighbors,
                    "results diverged (cap {max_comparisons})"
                );
                assert_eq!(
                    batched.comparisons, scalar.comparisons,
                    "comparison counts diverged (cap {max_comparisons})"
                );
                assert_eq!(
                    (batched.routed_seeds, batched.random_seeds),
                    (scalar.routed_seeds, scalar.random_seeds)
                );
                if max_comparisons > 0 {
                    assert!(batched.comparisons <= max_comparisons, "seeds count against the cap");
                }
            }
        }
    }

    /// The routed seeds the rule asks for, computed independently of
    /// `pick_seeds`' counters and histogram: count the members of the
    /// smaller half of the routed clusters in a map, stable-sort them by
    /// count (descending, so ties keep their first-appearance order), and
    /// take those held by two or more clusters up to `beam_width`, the
    /// ranking continuing to `entry_points` if that is more — all within
    /// the comparison cap. Also returns each seed's count.
    fn reference_seeds(
        entries: &EntryIndex,
        query: &[ItemId],
        n: usize,
        config: &BeamSearchConfig,
    ) -> Vec<(UserId, usize)> {
        let (mut hashes, mut routed) = (Vec::new(), Vec::new());
        entries.route(query, &mut hashes, &mut routed);
        routed.sort_by_key(|&c| entries.cluster(c).len());
        let counted = &routed[..routed.len().div_ceil(2)];
        let mut count: HashMap<UserId, usize> = HashMap::new();
        let mut ranked: Vec<UserId> = Vec::new();
        for &c in counted {
            for &user in entries.cluster(c) {
                let held = count.entry(user).or_insert(0);
                if *held == 0 {
                    ranked.push(user);
                }
                *held += 1;
            }
        }
        ranked.sort_by_key(|user| std::cmp::Reverse(count[user]));
        let multi = ranked.iter().filter(|user| count[user] >= 2).count();
        let cap = if config.max_comparisons > 0 { config.max_comparisons.min(n) } else { n };
        let take = config.beam_width.min(multi).max(config.entry_points).min(cap);
        ranked.into_iter().take(take).map(|user| (user, count[&user])).collect()
    }

    #[test]
    fn seeds_rank_members_by_how_many_smaller_clusters_hold_them() {
        let (ds, _) = setup();
        let n = ds.num_users();
        let (mut tie_at_cut, mut single_top_up) = (false, false);
        for functions in [&[0xE1][..], &[0xE1, 0xE2], &[0xE1, 0xE2, 0xE3], &[5, 6, 7, 8, 9]] {
            let entries = bucket_entries(&ds, functions, 64);
            for (beam_width, entry_points) in [(32, 6), (8, 6), (4, 6)] {
                let config = BeamSearchConfig { beam_width, entry_points, max_comparisons: 0 };
                for q in (0..500u32).step_by(7) {
                    let query = ds.profile(q);
                    let expect = reference_seeds(&entries, query, n, &config);
                    let (seeds, routed) = seeds_of(Some(&entries), query, n, &config, 9);
                    let users: Vec<UserId> = expect.iter().map(|&(user, _)| user).collect();
                    let case =
                        format!("{} functions, beam {beam_width}, query {q}", functions.len());
                    assert_eq!(seeds[..routed], users[..], "{case}");
                    // Random users only top a short routing up.
                    assert_eq!(seeds.len(), routed.max(entry_points));
                    // t' = 1 and t' = 2 count one cluster: the seeds are
                    // the first `entry_points` members of the smaller one.
                    if functions.len() <= 2 {
                        assert!(expect.iter().all(|&(_, held)| held == 1));
                    }
                    let multi = expect.iter().filter(|&&(_, held)| held >= 2).count();
                    single_top_up |= multi > 0 && multi < routed;
                    let unbounded = BeamSearchConfig { beam_width: n, ..config };
                    let all = reference_seeds(&entries, query, n, &unbounded);
                    tie_at_cut |= routed >= 2
                        && all.len() > routed
                        && expect[routed - 1].1 >= 2
                        && all[routed].1 == expect[routed - 1].1;

                    // A capped search scores a prefix of the seeds.
                    for max_comparisons in [1, 4, routed] {
                        let capped = BeamSearchConfig { max_comparisons, ..config };
                        let (few, few_routed) = seeds_of(Some(&entries), query, n, &capped, 9);
                        assert_eq!(few[..], seeds[..max_comparisons.min(seeds.len())]);
                        assert_eq!(few_routed, routed.min(max_comparisons));
                    }
                }
            }
        }
        assert!(tie_at_cut, "some query must split a tied count at the cut");
        assert!(single_top_up, "some query must top up with single-cluster members");

        // A profile that routes nowhere gets no routed seeds at all.
        let entries = bucket_entries(&ds, &[0xE1, 0xE2, 0xE3], 1 << 20);
        let config = BeamSearchConfig { beam_width: 32, entry_points: 6, max_comparisons: 0 };
        let stranger: Vec<u32> = vec![400_001, 400_002, 400_003];
        assert!(reference_seeds(&entries, &stranger, n, &config).is_empty());
        let (seeds, routed) = seeds_of(Some(&entries), &stranger, n, &config, 9);
        assert_eq!((seeds.len(), routed), (config.entry_points, 0));
    }

    #[test]
    fn unroutable_profiles_fall_back_to_random_entry_points() {
        let (ds, graph) = setup();
        let n = ds.num_users();
        let entries = bucket_entries(&ds, &[0xE1, 0xE2], 1 << 20);
        let config = BeamSearchConfig { beam_width: 32, entry_points: 6, max_comparisons: 0 };
        // Items no user holds: with b = 2^20 their buckets are unseen
        // under both functions.
        let stranger: Vec<u32> = vec![400_001, 400_002, 400_003];
        for query in [&[][..], &stranger[..]] {
            let (mut hashes, mut routed) = (Vec::new(), Vec::new());
            entries.route(query, &mut hashes, &mut routed);
            assert!(routed.is_empty(), "{query:?} must route nowhere");
            let with_index = seeds_of(Some(&entries), query, n, &config, 5);
            let without = seeds_of(None, query, n, &config, 5);
            assert_eq!(with_index.1, 0);
            assert_eq!(with_index.0.len(), config.entry_points);
            assert_eq!(with_index, without, "the fallback is the random start, draw for draw");
            let bound = QueryIndex::new(&ds, &graph).with_entries(&entries);
            let plain = QueryIndex::new(&ds, &graph);
            let (a, b) = (bound.search(query, 5, &config, 5), plain.search(query, 5, &config, 5));
            assert_eq!((a.neighbors, a.comparisons), (b.neighbors, b.comparisons));
            assert_eq!((a.routed_seeds, a.random_seeds), (0, config.entry_points));
        }
    }

    #[test]
    fn batched_goldfinger_search_is_identical_to_the_scalar_path() {
        let (ds, graph) = setup();
        // 192 bits exercises the dynamic-width fallback; 1024 the paper
        // default's fixed-width specialization.
        let n = ds.num_users();
        let seedings = seedings(&ds);
        for (bits, entries) in [(192usize, 0usize), (1024, 0), (1024, 1)] {
            let entries = seedings[entries].as_ref();
            let gf = GoldFinger::build(&ds, bits, 31);
            let index = bind(QueryIndex::with_goldfinger(&ds, &graph, &gf), entries);
            for (q, max_comparisons) in [(3usize, 0usize), (55, 90), (8, 1)] {
                let query: Vec<u32> = ds.profile((q * 11 % 500) as u32).to_vec();
                let qwords = gf.fingerprint_profile(&query);
                let config = BeamSearchConfig { beam_width: 24, entry_points: 5, max_comparisons };
                let batched = index.search(&query, 8, &config, q as u64);
                let seeds = seeds_of(entries, &query, n, &config, q as u64);
                let scalar = scalar_reference(&graph, n, 8, &config, seeds, |u| {
                    // The estimator the kernels must match bit-for-bit.
                    let (mut inter, mut union) = (0u32, 0u32);
                    for (a, b) in qwords.iter().zip(gf.fingerprint(u)) {
                        inter += (a & b).count_ones();
                        union += (a | b).count_ones();
                    }
                    if union == 0 {
                        0.0
                    } else {
                        (inter as f64 / union as f64) as f32
                    }
                });
                assert_eq!(batched.neighbors, scalar.neighbors, "{bits} bits diverged");
                assert_eq!(batched.comparisons, scalar.comparisons, "{bits} bits counts diverged");
            }
        }
    }

    #[test]
    fn search_batch_equals_search_per_query() {
        let bits_of = |r: &QueryResult| -> Vec<(UserId, u32)> {
            r.neighbors.iter().map(|n| (n.user, n.sim.to_bits())).collect()
        };
        let (ds, graph) = setup();
        let seedings = seedings(&ds);
        for (bits, entries) in
            [(None, 0usize), (None, 1), (Some(1024usize), 0), (Some(1024), 1), (Some(192), 1)]
        {
            let gf = bits.map(|b| GoldFinger::build(&ds, b, 31));
            let index = match &gf {
                None => QueryIndex::new(&ds, &graph),
                Some(gf) => QueryIndex::with_goldfinger(&ds, &graph, gf),
            };
            let index = bind(index, seedings[entries].as_ref());
            for (batch_size, max_comparisons) in [(0u32, 0usize), (1, 0), (70, 0), (70, 120)] {
                let config = BeamSearchConfig { beam_width: 24, entry_points: 5, max_comparisons };
                let profiles: Vec<Vec<u32>> =
                    (0..batch_size).map(|q| ds.profile(q * 37 % 500).to_vec()).collect();
                let queries: Vec<BatchQuery> = profiles
                    .iter()
                    .enumerate()
                    .map(|(q, p)| BatchQuery { profile: p, k: 4 + q % 5, seed: q as u64 * 7 })
                    .collect();
                let batched = index.search_batch(&queries, &config);
                assert_eq!(batched.len(), queries.len());
                for (q, (query, got)) in queries.iter().zip(&batched).enumerate() {
                    let single = index.search(query.profile, query.k, &config, query.seed);
                    assert_eq!(
                        bits_of(got),
                        bits_of(&single),
                        "{bits:?} bits, query {q}, cap {max_comparisons}"
                    );
                    assert_eq!(
                        (got.comparisons, got.routed_seeds, got.random_seeds),
                        (single.comparisons, single.routed_seeds, single.random_seeds),
                        "{bits:?} bits, query {q}, cap {max_comparisons}: counts diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn beam_search_reaches_high_recall_at_a_fraction_of_the_cost() {
        let (ds, graph) = setup();
        let index = QueryIndex::new(&ds, &graph);
        let config = BeamSearchConfig { beam_width: 48, entry_points: 8, max_comparisons: 0 };
        let mut total_recall = 0.0;
        let mut total_comparisons = 0usize;
        let queries = 20;
        for q in 0..queries {
            // Use existing users' profiles as out-of-sample queries.
            let query: Vec<u32> = ds.profile(q * 17).to_vec();
            let approx = index.search(&query, 10, &config, q as u64);
            let exact = index.exact_search(&query, 10);
            total_recall += QueryIndex::recall(&approx, &exact);
            total_comparisons += approx.comparisons;
        }
        let recall = total_recall / queries as f64;
        let avg_cost = total_comparisons / queries as usize;
        assert!(recall > 0.7, "beam search recall {recall:.3} too low");
        assert!(avg_cost < ds.num_users() / 2, "avg {avg_cost} comparisons ≥ half a linear scan");
    }

    #[test]
    fn goldfinger_mode_still_recalls_most_of_the_exact_answer() {
        let (ds, graph) = setup();
        let gf = GoldFinger::build(&ds, 1024, 9);
        let index = QueryIndex::with_goldfinger(&ds, &graph, &gf);
        let config = BeamSearchConfig { beam_width: 48, entry_points: 8, max_comparisons: 0 };
        let mut total_recall = 0.0;
        let queries = 10;
        for q in 0..queries {
            let query: Vec<u32> = ds.profile(q * 31).to_vec();
            let approx = index.search(&query, 10, &config, q as u64);
            let exact = index.exact_search(&query, 10);
            total_recall += QueryIndex::recall(&approx, &exact);
        }
        let recall = total_recall / queries as f64;
        assert!(recall > 0.6, "fingerprinted recall {recall:.3} too low");
    }

    #[test]
    fn exact_search_returns_true_top_k() {
        let (ds, graph) = setup();
        let index = QueryIndex::new(&ds, &graph);
        let query: Vec<u32> = ds.profile(0).to_vec();
        let exact = index.exact_search(&query, 5);
        // The query IS user 0's profile, so user 0 is its own best match.
        assert_eq!(exact.neighbors[0].user, 0);
        assert_eq!(exact.neighbors[0].sim, 1.0);
        assert_eq!(exact.comparisons, ds.num_users());
    }

    #[test]
    fn search_is_deterministic_given_seed() {
        let (ds, graph) = setup();
        let index = QueryIndex::new(&ds, &graph);
        let query: Vec<u32> = ds.profile(42).to_vec();
        let config = BeamSearchConfig::default();
        let a = index.search(&query, 8, &config, 9);
        let b = index.search(&query, 8, &config, 9);
        assert_eq!(a.neighbors, b.neighbors);
        assert_eq!(a.comparisons, b.comparisons);
    }

    #[test]
    fn max_comparisons_caps_the_work() {
        let (ds, graph) = setup();
        let index = QueryIndex::new(&ds, &graph);
        let query: Vec<u32> = ds.profile(3).to_vec();
        let config = BeamSearchConfig { beam_width: 32, entry_points: 4, max_comparisons: 50 };
        let result = index.search(&query, 10, &config, 5);
        assert!(result.comparisons <= 50, "cap exceeded: {}", result.comparisons);
        assert!(!result.neighbors.is_empty());
    }

    #[test]
    fn searcher_scratch_is_reusable() {
        let (ds, graph) = setup();
        let index = QueryIndex::new(&ds, &graph);
        let mut searcher = index.searcher();
        let config = BeamSearchConfig::default();
        let q1: Vec<u32> = ds.profile(1).to_vec();
        let q2: Vec<u32> = ds.profile(2).to_vec();
        let a = index.search_with(&mut searcher, &q1, 5, &config, 1);
        let b = index.search_with(&mut searcher, &q2, 5, &config, 1);
        // Both answers must match fresh-scratch searches (epoch isolation).
        assert_eq!(a.neighbors, index.search(&q1, 5, &config, 1).neighbors);
        assert_eq!(b.neighbors, index.search(&q2, 5, &config, 1).neighbors);
    }

    #[test]
    fn searcher_survives_a_growing_index() {
        // A searcher created on a small index keeps working after the
        // "epoch" swaps to a bigger one (the cnc-serve session pattern).
        let (ds, graph) = setup();
        let small = Dataset::from_profiles(vec![vec![1, 2], vec![2, 3]], 400);
        let small_sim = SimilarityData::build(SimilarityBackend::Raw, &small);
        let small_ctx =
            BuildContext { dataset: &small, sim: &small_sim, k: 2, threads: 0, seed: 1 };
        let small_graph = BruteForce.build(&small_ctx);
        let mut searcher = QueryIndex::new(&small, &small_graph).searcher();
        let config = BeamSearchConfig::default();
        let _ = QueryIndex::new(&small, &small_graph).search_with(
            &mut searcher,
            &[1, 2],
            2,
            &config,
            3,
        );

        let index = QueryIndex::new(&ds, &graph);
        let query: Vec<u32> = ds.profile(9).to_vec();
        let grown = index.search_with(&mut searcher, &query, 5, &config, 3);
        assert_eq!(grown.neighbors, index.search(&query, 5, &config, 3).neighbors);
    }

    #[test]
    fn empty_dataset_returns_empty_answer() {
        let ds = Dataset::from_profiles(vec![], 0);
        let graph = KnnGraph::new(0, 3);
        let index = QueryIndex::new(&ds, &graph);
        let result = index.search(&[1, 2], 3, &BeamSearchConfig::default(), 0);
        assert!(result.neighbors.is_empty());
    }

    #[test]
    fn recall_of_identical_answers_is_one() {
        let (ds, graph) = setup();
        let index = QueryIndex::new(&ds, &graph);
        let query: Vec<u32> = ds.profile(7).to_vec();
        let exact = index.exact_search(&query, 5);
        assert_eq!(QueryIndex::recall(&exact, &exact), 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid beam search config")]
    fn invalid_config_panics() {
        let (ds, graph) = setup();
        let index = QueryIndex::new(&ds, &graph);
        let config = BeamSearchConfig { beam_width: 2, ..Default::default() };
        index.search(&[1], 10, &config, 0);
    }

    #[test]
    #[should_panic(expected = "fingerprints must cover the dataset")]
    fn mismatched_fingerprints_rejected() {
        let (ds, graph) = setup();
        let tiny = Dataset::from_profiles(vec![vec![1]], 0);
        let gf = GoldFinger::build(&tiny, 64, 1);
        QueryIndex::with_goldfinger(&ds, &graph, &gf);
    }
}
