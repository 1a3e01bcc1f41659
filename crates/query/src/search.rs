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
//! belongs to and the beam starts at their members; random users only
//! fill in when routing comes up short.

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
