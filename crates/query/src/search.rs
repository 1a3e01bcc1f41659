//! The batched beam-search core shared by [`crate::QueryIndex`] and
//! [`crate::DynamicIndex`].
//!
//! The seed implementation scored every frontier expansion with one scalar
//! `Jaccard::similarity` call per candidate (the ROADMAP PR-3 follow-up:
//! "`cnc-query` still calls scalar `Jaccard::similarity` per candidate").
//! This module rewrites the expansion around
//! [`cnc_similarity::kernel::one_vs_many`]: the unvisited neighbours of
//! the expanded node are gathered into one batch and scored through a
//! monomorphized query kernel — exact Jaccard over profiles, or a
//! fixed-width GoldFinger kernel with the query fingerprinted once per
//! search. Results and comparison counts are **identical** to the scalar
//! path (locked by the equivalence tests in `index.rs` and `dynamic.rs`):
//! the batch preserves the neighbour-list visit order, so every beam and
//! frontier mutation happens in the same sequence the scalar loop
//! produced.
//!
//! Every search — single, cross-query lane, insert placement — gets its
//! seeds from one routine, [`pick_seeds`]: the query profile is routed
//! through the graph's [`EntryIndex`] to the FastRandomHash clusters it
//! belongs to and the beam starts at their members; random users only
//! fill in when routing comes up short.

use crate::beam::BeamSearchConfig;
use crate::index::Searcher;
use cnc_dataset::{ItemId, UserId};
use cnc_graph::{EntryIndex, KnnGraph, NeighborList};
use cnc_similarity::kernel::{
    one_vs_many, shared_list_sweep, SimKernel, SimSolve, MAX_SWEEP_QUERIES,
};
use cnc_similarity::Jaccard;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// A candidate in the expansion frontier, max-ordered by similarity
/// (ties on the smaller user id, for determinism).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Candidate {
    pub sim: f32,
    pub user: UserId,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Similarities are never NaN (raw Jaccard and the GoldFinger
        // estimator are both finite ratios).
        self.sim.partial_cmp(&other.sim).unwrap().then_with(|| other.user.cmp(&self.user))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Starts a search over `n` users in `searcher`: resets the visited
/// marks, fills `batch` with the seeds (marking them visited) and returns
/// how many of them were routed — the rest are random fill.
///
/// Routed seeds come first and aim at a **full beam**: `query` is routed
/// through `entries` to (at most) one cluster per hash function, and
/// members are taken round-robin over those clusters, smallest cluster
/// first (fewer co-members share the query's minimum-hash item, so each
/// is likelier to be similar), until `beam_width` seeds are found or the
/// clusters run out. A beam filled with good candidates terminates
/// sooner, so more routed seeds cost *fewer* comparisons overall.
/// `entry_points` is the floor random users top the seeds up to — the
/// whole seed set when routing places the profile nowhere (no index, an
/// empty profile, unseen buckets), which makes that case draw-for-draw
/// the random start this routine replaced. Seeds count against
/// `max_comparisons`: a capped search scores at most that many.
pub(crate) fn pick_seeds(
    entries: Option<&EntryIndex>,
    query: &[ItemId],
    n: usize,
    config: &BeamSearchConfig,
    seed: u64,
    searcher: &mut Searcher,
) -> usize {
    let Searcher { visited, batch, hashes, clusters } = searcher;
    visited.grow(n);
    visited.clear();
    batch.clear();
    let cap = if config.max_comparisons > 0 { config.max_comparisons.min(n) } else { n };

    if let Some(entries) = entries.filter(|e| !e.is_empty()) {
        let want = config.beam_width.min(cap);
        entries.route(query, hashes, clusters);
        clusters.sort_by_key(|&c| entries.cluster(c).len());
        let mut round = 0;
        let mut live = true;
        while live && batch.len() < want {
            live = false;
            for &cluster in clusters.iter() {
                if let Some(&user) = entries.cluster(cluster).get(round) {
                    live = true;
                    if visited.insert(user) {
                        batch.push(user);
                        if batch.len() == want {
                            break;
                        }
                    }
                }
            }
            round += 1;
        }
    }
    let routed = batch.len();

    let floor = config.entry_points.min(cap);
    if batch.len() < floor {
        let mut rng = SmallRng::seed_from_u64(seed);
        while batch.len() < floor {
            let user = rng.random_range(0..n as u32);
            if visited.insert(user) {
                batch.push(user);
            }
        }
    }
    routed
}

/// One greedy beam search over `graph`, scoring through `kernel`, from
/// the seeds [`pick_seeds`] left in `searcher`.
///
/// The kernel's rows `0..len()-1` are the graph's users and row
/// `len()-1` is the query (the query-kernel convention of
/// `cnc_similarity::kernel`). Returns the beam and the number of
/// similarity computations spent.
///
/// Batching contract: every expansion gathers the expanded node's
/// unvisited neighbours in list order into a batch and scores them with
/// one [`one_vs_many`] call. `config.max_comparisons` reproduces the
/// scalar semantics exactly — candidate `i` of an expansion is scored iff
/// `comparisons + i < max` — and ends the search whenever a gathered
/// candidate had to be dropped, as the scalar loop did by clearing the
/// frontier.
pub(crate) fn batched_beam_search<K: SimKernel>(
    kernel: &K,
    graph: &KnnGraph,
    searcher: &mut Searcher,
    config: &BeamSearchConfig,
) -> (NeighborList, usize) {
    let Searcher { visited, batch, .. } = searcher;
    let n = kernel.len() - 1;
    debug_assert_eq!(graph.num_users(), n, "graph must cover the kernel's user rows");
    let qrow = n as u32;
    let mut comparisons = 0usize;
    let mut beam = NeighborList::new(config.beam_width);
    let mut frontier: BinaryHeap<Candidate> = BinaryHeap::new();

    // The seeds, scored as one batch. Picking them never looks at scores,
    // so picking first and scoring after is step-for-step the scalar
    // sequence.
    one_vs_many(kernel, qrow, batch, |j, s| {
        beam.insert(j, s);
        frontier.push(Candidate { sim: s, user: j });
    });
    comparisons += batch.len();

    while let Some(best) = frontier.pop() {
        // Greedy termination: the best unexpanded candidate cannot
        // improve a full beam.
        if beam.is_full() && best.sim < beam.worst_sim() {
            break;
        }
        batch.clear();
        for edge in graph.neighbors(best.user).iter() {
            if visited.insert(edge.user) {
                batch.push(edge.user);
            }
        }
        let mut capped = false;
        if config.max_comparisons > 0 {
            let allowed = config.max_comparisons.saturating_sub(comparisons);
            if batch.len() > allowed {
                batch.truncate(allowed);
                capped = true;
            }
        }
        one_vs_many(kernel, qrow, batch, |j, s| {
            if beam.insert(j, s) {
                frontier.push(Candidate { sim: s, user: j });
            }
        });
        comparisons += batch.len();
        if capped {
            break;
        }
    }
    (beam, comparisons)
}

/// Per-query state of one lane of a cross-query batch. Lanes share no
/// state — only execution — so each lane's operation sequence is exactly
/// its single-query sequence and bit-identity to [`batched_beam_search`]
/// follows by construction (and is locked by `tests/slo.rs`).
pub(crate) struct QueryLane {
    searcher: Searcher,
    frontier: BinaryHeap<Candidate>,
    beam: NeighborList,
    comparisons: usize,
    done: bool,
    capped: bool,
    /// `(routed, random)` seeds the lane started from.
    pub seeds: (usize, usize),
}

impl QueryLane {
    /// A lane over `n` users, seeded for `query` exactly as a single
    /// search with the same seed would be.
    pub fn seeded(
        entries: Option<&EntryIndex>,
        query: &[ItemId],
        n: usize,
        config: &BeamSearchConfig,
        seed: u64,
    ) -> Self {
        let mut searcher = Searcher::new(n);
        let routed = pick_seeds(entries, query, n, config, seed, &mut searcher);
        QueryLane {
            seeds: (routed, searcher.batch.len() - routed),
            searcher,
            frontier: BinaryHeap::new(),
            beam: NeighborList::new(config.beam_width),
            comparisons: 0,
            done: false,
            capped: false,
        }
    }
}

/// Cross-query batched beam search: runs up to [`MAX_SWEEP_QUERIES`]
/// independent greedy searches in lockstep so that queries expanding the
/// **same node** in the same round share one sweep over that node's
/// neighbour list ([`shared_list_sweep`]): the candidate rows are gathered
/// once and scored against every interested query row while cache-hot.
///
/// The kernel's rows `0..len()-Q` are the graph's users and row `n + q`
/// is query `q` (the multi-query kernel convention); `lanes[q]` arrives
/// seeded ([`QueryLane::seeded`]). Per query, the returned beam and
/// comparison count are bit-identical to [`batched_beam_search`] from the
/// same seeds: each lane pops, gathers, truncates and scores in exactly
/// the single-query order; only execution across lanes is interleaved,
/// and the shared sweep computes exactly the union of the pairs the
/// lanes would have computed alone.
pub(crate) fn batched_multi_beam_search<K: SimKernel>(
    kernel: &K,
    graph: &KnnGraph,
    config: &BeamSearchConfig,
    mut lanes: Vec<QueryLane>,
) -> Vec<(NeighborList, usize)> {
    let num_queries = lanes.len();
    assert!(num_queries <= MAX_SWEEP_QUERIES, "at most {MAX_SWEEP_QUERIES} queries per batch");
    let n = kernel.len() - num_queries;
    debug_assert_eq!(graph.num_users(), n, "graph must cover the kernel's user rows");

    // Seed phase: a per-lane scoring batch. Seed sets are small and
    // unrelated across lanes, so nothing is shared here; the
    // pick-then-score order matches the single path.
    for (q, lane) in lanes.iter_mut().enumerate() {
        let qrow = (n + q) as u32;
        let (beam, frontier) = (&mut lane.beam, &mut lane.frontier);
        one_vs_many(kernel, qrow, &lane.searcher.batch, |j, s| {
            beam.insert(j, s);
            frontier.push(Candidate { sim: s, user: j });
        });
        lane.comparisons += lane.searcher.batch.len();
    }

    // Lockstep rounds: each active lane pops its best frontier candidate
    // and either terminates (greedy condition / exhausted frontier) or
    // requests an expansion. Requests for the same node are grouped and
    // served by one shared sweep over that node's neighbour list.
    let mut groups: BTreeMap<UserId, Vec<usize>> = BTreeMap::new();
    let mut list: Vec<UserId> = Vec::new();
    let mut masks: Vec<u64> = Vec::new();
    let mut query_rows: Vec<u32> = Vec::new();
    loop {
        groups.clear();
        for (q, lane) in lanes.iter_mut().enumerate() {
            if lane.done {
                continue;
            }
            match lane.frontier.pop() {
                None => lane.done = true,
                Some(best) => {
                    if lane.beam.is_full() && best.sim < lane.beam.worst_sim() {
                        lane.done = true;
                        continue;
                    }
                    lane.searcher.batch.clear();
                    for edge in graph.neighbors(best.user).iter() {
                        if lane.searcher.visited.insert(edge.user) {
                            lane.searcher.batch.push(edge.user);
                        }
                    }
                    lane.capped = false;
                    if config.max_comparisons > 0 {
                        let allowed = config.max_comparisons.saturating_sub(lane.comparisons);
                        if lane.searcher.batch.len() > allowed {
                            lane.searcher.batch.truncate(allowed);
                            lane.capped = true;
                        }
                    }
                    groups.entry(best.user).or_default().push(q);
                }
            }
        }
        if groups.is_empty() {
            break;
        }
        for (&node, members) in &groups {
            list.clear();
            masks.clear();
            for edge in graph.neighbors(node).iter() {
                list.push(edge.user);
                masks.push(0);
            }
            // Each lane's batch is (a truncated prefix of) the subsequence
            // of `list` that passed its visited filter, in list order, so
            // a single forward match recovers the positions.
            for (bit, &q) in members.iter().enumerate() {
                let batch = &lanes[q].searcher.batch;
                let mut ptr = 0usize;
                for (p, &u) in list.iter().enumerate() {
                    if ptr == batch.len() {
                        break;
                    }
                    if batch[ptr] == u {
                        masks[p] |= 1 << bit;
                        ptr += 1;
                    }
                }
                debug_assert_eq!(ptr, batch.len(), "batch must be a subsequence of the list");
            }
            query_rows.clear();
            query_rows.extend(members.iter().map(|&q| (n + q) as u32));
            shared_list_sweep(kernel, &query_rows, &list, &masks, |local, j, s| {
                let lane = &mut lanes[members[local]];
                if lane.beam.insert(j, s) {
                    lane.frontier.push(Candidate { sim: s, user: j });
                }
            });
            for &q in members {
                let lane = &mut lanes[q];
                lane.comparisons += lane.searcher.batch.len();
                if lane.capped {
                    lane.done = true;
                }
            }
        }
    }
    lanes.into_iter().map(|lane| (lane.beam, lane.comparisons)).collect()
}

/// The cross-query search as a [`SimSolve`] visitor, so
/// [`cnc_similarity::kernel::solve_multi_query_words`] can pick the
/// fixed-width GoldFinger specialization once per batch.
pub(crate) struct MultiBeamSolve<'a> {
    pub graph: &'a KnnGraph,
    pub config: &'a BeamSearchConfig,
    pub lanes: Vec<QueryLane>,
}

impl SimSolve for MultiBeamSolve<'_> {
    type Output = Vec<(NeighborList, usize)>;

    fn run<K: SimKernel>(self, kernel: &K) -> Self::Output {
        batched_multi_beam_search(kernel, self.graph, self.config, self.lanes)
    }
}

/// The beam search as a [`SimSolve`] visitor, so
/// [`cnc_similarity::kernel::solve_query_words`] can pick the fixed-width
/// GoldFinger specialization once per query and monomorphize the whole
/// search against it.
pub(crate) struct BeamSolve<'a> {
    pub graph: &'a KnnGraph,
    pub searcher: &'a mut Searcher,
    pub config: &'a BeamSearchConfig,
}

impl SimSolve for BeamSolve<'_> {
    type Output = (NeighborList, usize);

    fn run<K: SimKernel>(self, kernel: &K) -> Self::Output {
        batched_beam_search(kernel, self.graph, self.searcher, self.config)
    }
}

/// Exact-Jaccard query kernel over owned profile vectors — the
/// [`crate::DynamicIndex`] storage, which grows online and therefore has
/// no immutable CSR `Dataset` to hand to
/// [`cnc_similarity::kernel::RawQueryKernel`]. Same row convention: rows
/// `0..n` are the stored users, row `n` is the query.
pub(crate) struct ProfilesQueryKernel<'a> {
    profiles: &'a [Vec<ItemId>],
    query: &'a [ItemId],
}

impl<'a> ProfilesQueryKernel<'a> {
    pub fn new(profiles: &'a [Vec<ItemId>], query: &'a [ItemId]) -> Self {
        ProfilesQueryKernel { profiles, query }
    }

    #[inline]
    fn profile(&self, i: u32) -> &[ItemId] {
        if i as usize == self.profiles.len() {
            self.query
        } else {
            &self.profiles[i as usize]
        }
    }
}

impl SimKernel for ProfilesQueryKernel<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.profiles.len() + 1
    }

    #[inline]
    fn sim(&self, i: u32, j: u32) -> f32 {
        Jaccard::similarity(self.profile(i), self.profile(j)) as f32
    }
}
