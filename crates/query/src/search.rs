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
//! Every search — a query, each query of a batch, insert placement — gets its
//! seeds from one routine, [`pick_seeds`]: the query profile is routed
//! through the graph's [`EntryIndex`] to the FastRandomHash clusters it
//! belongs to, and the beam starts at the users who share the most of the
//! smaller half of those clusters — two or more of them first, then, up to
//! `entry_points`, users who share one; random users only fill in when
//! routing comes up short.

use crate::beam::BeamSearchConfig;
use crate::index::Searcher;
use cnc_dataset::{ItemId, UserId};
use cnc_graph::{EntryIndex, KnnGraph, NeighborList};
use cnc_similarity::kernel::{one_vs_many, SimKernel, SimSolve};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
/// Routed seeds are the users who share the most of the query's smaller
/// clusters. `query` is routed through `entries` to (at most) one cluster
/// per hash function; of those `t'` clusters, the smaller half
/// (`⌈t'/2⌉`, smallest first — fewer co-members share the query's
/// minimum-hash item there, so each is likelier to be similar) is
/// *counted*: every member gets the number of counted clusters that hold
/// it. Members held by at least two counted clusters are the seeds,
/// highest count first, ties in the order they first appear, up to
/// `beam_width`; the ranking continues up to `entry_points` if that is
/// more, so members held by one counted cluster only top the seeds up to
/// that floor. Co-membership is the paper's locality signal
/// (Theorem 1), and a user sharing several of the query's buckets is
/// likelier still to be similar, so the beam starts nearer its answer.
/// `entry_points` is also the floor random users top the seeds up to — the
/// whole seed set when routing places the profile nowhere (no index, an
/// empty profile, unseen buckets), which makes that case draw-for-draw
/// the random start. Seeds count against `max_comparisons`: a capped
/// search scores at most that many, a prefix of the uncapped seeds.
///
/// Counting reads the members of the counted clusters once, ranks them
/// with a histogram over their counts (no sort) and clears only the
/// counters it set, so no query touches anything O(n). Counters are one
/// `u8` per user and saturate at 255.
pub(crate) fn pick_seeds(
    entries: Option<&EntryIndex>,
    query: &[ItemId],
    n: usize,
    config: &BeamSearchConfig,
    seed: u64,
    searcher: &mut Searcher,
) -> usize {
    let Searcher { visited, batch, hashes, clusters, counts, members } = searcher;
    visited.grow(n);
    visited.clear();
    batch.clear();
    let cap = if config.max_comparisons > 0 { config.max_comparisons.min(n) } else { n };
    let floor = config.entry_points.min(cap);

    if let Some(entries) = entries.filter(|e| !e.is_empty()) {
        entries.route(query, hashes, clusters);
        clusters.sort_by_key(|&c| entries.cluster(c).len());
        clusters.truncate(clusters.len().div_ceil(2));
        if counts.len() < n {
            counts.resize(n, 0);
        }
        members.clear();
        for &cluster in clusters.iter() {
            for &user in entries.cluster(cluster) {
                let count = &mut counts[user as usize];
                if *count == 0 {
                    members.push(user);
                }
                *count = count.saturating_add(1);
            }
        }
        // `rank[c]`: members held by exactly `c` counted clusters, then
        // where they start in the seed order (highest count first).
        let mut rank = [0u32; 256];
        let levels = clusters.len().min(u8::MAX as usize) + 1;
        for &user in members.iter() {
            rank[counts[user as usize] as usize] += 1;
        }
        let multi = members.len() - rank[1] as usize;
        let take = config.beam_width.min(cap).min(multi).max(floor).min(members.len());
        let mut start = 0;
        for slot in rank[1..levels].iter_mut().rev() {
            (*slot, start) = (start, start + *slot);
        }
        batch.resize(take, 0);
        for &user in members.iter() {
            let count = &mut counts[user as usize];
            let at = &mut rank[*count as usize];
            if (*at as usize) < take {
                batch[*at as usize] = user;
                visited.insert(user);
            }
            *at += 1;
            *count = 0;
        }
    }
    let routed = batch.len();

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
