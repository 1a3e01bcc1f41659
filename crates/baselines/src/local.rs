//! Cluster-restricted KNN solvers (the workers of C²'s Step 2 and of LSH's
//! buckets).
//!
//! Both solvers — brute force and greedy Hyrec, dispatched by Algorithm 2
//! — work on an arbitrary subset of users ("the partial KNN graph of each
//! cluster … does not need to be synchronized with any other
//! computation"), and each comes in two forms, one per place its result
//! can go:
//!
//! * **Into a [`SharedKnnGraph`]** ([`solve_cluster`], [`brute_force`],
//!   [`hyrec`]) — the in-process build. A brute-forced cluster offers every
//!   pair straight to both members' rows ([`cnc_graph::pairwise_shared`]):
//!   rows only improve, so most offers fall under their row's floor and
//!   cost one load, and no cluster-local list is built or merged. A greedy
//!   cluster runs on a local graph and merges its lists member by member
//!   (Algorithm 3).
//! * **As partial lists** ([`solve_cluster_partial`]) — one bounded list
//!   per member, for a map stage that merges them later (`cnc-runtime`) or
//!   ships them over a wire (`cnc-distrib`).
//!
//! The two forms make the same offers, so a row ends with the same top-k.

use cnc_dataset::UserId;
use cnc_graph::{pairwise_lists, pairwise_shared, KnnGraph, NeighborList, SharedKnnGraph};
use cnc_similarity::kernel::{pair_count, SimKernel, SimSolve};
use cnc_similarity::SimilarityData;

/// Exhaustive pairwise KNN restricted to `users` (|C|·(|C|−1)/2
/// similarities), returning one bounded list per user (positionally
/// aligned with `users`) and the number of similarities computed (already
/// flushed to `sim`).
///
/// This is the *map-stage* form of Algorithm 2's cheap branch, behind
/// [`solve_cluster_partial`]; [`brute_force`] is the in-process form.
///
/// Runs on the batched kernel layer: one backend dispatch and (for
/// GoldFinger) one contiguous fingerprint tile per cluster, then a
/// monomorphized all-pairs sweep, then **one** comparison-count flush for
/// the whole cluster — the totals are identical to counting per pair.
fn brute_force_partial_counted(
    users: &[UserId],
    sim: &SimilarityData<'_>,
    k: usize,
) -> (Vec<NeighborList>, u64) {
    if users.len() < 2 {
        return ((0..users.len()).map(|_| NeighborList::new(k)).collect(), 0);
    }
    let lists = sim.solve_cluster(users, BrutePartial { users, k });
    let comparisons = pair_count(users.len());
    sim.add_comparisons(comparisons);
    (lists, comparisons)
}

/// Algorithm 2's dispatch into `out`: brute force below `threshold`
/// (= `ρ·k²`, seed-independent), greedy Hyrec above — the branch
/// `cnc-core`'s `BuildPlan::patch` takes per cluster solved whole, beside
/// [`solve_cluster_partial`]'s map-stage form of the same branch, so the
/// build paths cannot drift.
pub fn solve_cluster(
    users: &[UserId],
    sim: &SimilarityData<'_>,
    out: &SharedKnnGraph,
    threshold: usize,
    rho: usize,
    delta: f64,
    seed: u64,
) {
    if users.len() < threshold {
        brute_force(users, sim, out);
    } else {
        hyrec(users, sim, out, rho, delta, seed);
    }
}

/// Algorithm 2's dispatch, in map-stage form (see [`solve_cluster`]) —
/// the branch `cnc-runtime`'s map-stage jobs and `cnc-distrib` take per
/// cluster. Returns the partial lists
/// (aligned with `users`) and the similarity count the solve flushed.
pub fn solve_cluster_partial(
    users: &[UserId],
    sim: &SimilarityData<'_>,
    k: usize,
    threshold: usize,
    rho: usize,
    delta: f64,
    seed: u64,
) -> (Vec<NeighborList>, u64) {
    if users.len() < threshold {
        brute_force_partial_counted(users, sim, k)
    } else {
        hyrec_partial_counted(users, sim, k, rho, delta, seed)
    }
}

/// The brute-force cluster solve, written once and monomorphized per
/// kernel by [`SimilarityData::solve_cluster`].
struct BrutePartial<'a> {
    users: &'a [UserId],
    k: usize,
}

impl SimSolve for BrutePartial<'_> {
    type Output = Vec<NeighborList>;

    fn run<K: SimKernel>(self, kernel: &K) -> Vec<NeighborList> {
        pairwise_lists(kernel, self.users, self.k)
    }
}

/// Exhaustive pairwise KNN restricted to `users`, offered straight to
/// `out`'s rows (module docs); one comparison-count flush per cluster.
///
/// Used when `|C| < ρ·k²` (Algorithm 2's cheap branch) and by the LSH
/// baseline inside each bucket.
pub fn brute_force(users: &[UserId], sim: &SimilarityData<'_>, out: &SharedKnnGraph) {
    if users.len() < 2 {
        return;
    }
    sim.solve_cluster(users, BruteShared { users, out });
    sim.add_comparisons(pair_count(users.len()));
}

/// [`brute_force`]'s sweep, monomorphized per kernel.
struct BruteShared<'a> {
    users: &'a [UserId],
    out: &'a SharedKnnGraph,
}

impl SimSolve for BruteShared<'_> {
    type Output = ();

    fn run<K: SimKernel>(self, kernel: &K) {
        pairwise_shared(kernel, self.users, self.out);
    }
}

/// Greedy Hyrec restricted to `users`, returning one bounded list per user
/// (positionally aligned with `users`) and the number of similarities it
/// computed (already flushed to `sim`) — the *map-stage* form of
/// Algorithm 2's expensive branch, bounded by `ρ·k²·|C|/2` similarities.
///
/// Runs the standard Hyrec loop on a *local* graph over the cluster: random
/// k-degree init, then up to `rho` iterations comparing every user with its
/// neighbours-of-neighbours, stopping early when an iteration produces fewer
/// than `delta·k·|C|` updates.
fn hyrec_partial_counted(
    users: &[UserId],
    sim: &SimilarityData<'_>,
    k: usize,
    rho: usize,
    delta: f64,
    seed: u64,
) -> (Vec<NeighborList>, u64) {
    let n = users.len();
    // Tiny clusters degenerate to brute force (cheaper and exact).
    if n <= k + 1 {
        return brute_force_partial_counted(users, sim, k);
    }
    let (lists, comparisons) =
        sim.solve_cluster(users, HyrecPartial { users, k, rho, delta, seed });
    sim.add_comparisons(comparisons);
    (lists, comparisons)
}

/// The greedy cluster solve, written once and monomorphized per kernel by
/// [`SimilarityData::solve_cluster`]. Returns the translated lists plus
/// the number of similarities computed (flushed by the caller in one
/// batched add — the counter totals match the per-pair accounting of the
/// scalar path exactly).
struct HyrecPartial<'a> {
    users: &'a [UserId],
    k: usize,
    rho: usize,
    delta: f64,
    seed: u64,
}

impl SimSolve for HyrecPartial<'_> {
    type Output = (Vec<NeighborList>, u64);

    fn run<K: SimKernel>(self, kernel: &K) -> Self::Output {
        let (users, k) = (self.users, self.k);
        let n = users.len();
        let mut comparisons = 0u64;
        // Local graph over local indices 0..n (= kernel rows).
        let mut graph = KnnGraph::random_init(n, k, self.seed, |a, b| {
            comparisons += 1;
            kernel.sim(a, b)
        });
        let mut candidates: Vec<u32> = Vec::new();
        // Flat per-iteration snapshot of the adjacency (offsets + one id
        // buffer), reused across iterations instead of reallocating a
        // Vec<Vec<u32>> every round.
        let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut ids: Vec<u32> = Vec::with_capacity(n * k);
        for _ in 0..self.rho {
            offsets.clear();
            ids.clear();
            offsets.push(0);
            for u in 0..n as u32 {
                ids.extend(graph.neighbors(u).iter().map(|nb| nb.user));
                offsets.push(ids.len() as u32);
            }
            let row = |u: u32| &ids[offsets[u as usize] as usize..offsets[u as usize + 1] as usize];
            let mut updates = 0usize;
            for u in 0..n as u32 {
                candidates.clear();
                for &v in row(u) {
                    for &w in row(v) {
                        if w != u {
                            candidates.push(w);
                        }
                    }
                }
                candidates.sort_unstable();
                candidates.dedup();
                for &w in &candidates {
                    // The live-graph check (not the frozen snapshot) and
                    // the compute-then-insert interleaving are the seed
                    // semantics: an insert may evict a later candidate,
                    // which is then recomputed. Do not batch this loop.
                    if graph.neighbors(u).contains(w) {
                        continue; // already connected; similarity known
                    }
                    let s = kernel.sim(u, w);
                    comparisons += 1;
                    updates += usize::from(graph.insert(u, w, s));
                    updates += usize::from(graph.insert(w, u, s));
                }
            }
            if (updates as f64) < self.delta * k as f64 * n as f64 {
                break;
            }
        }
        // Translate local indices back to global user ids.
        let lists = users
            .iter()
            .enumerate()
            .map(|(local, _)| {
                let mut translated = NeighborList::new(k);
                for nb in graph.neighbors(local as u32).iter() {
                    translated.insert(users[nb.user as usize], nb.sim);
                }
                translated
            })
            .collect();
        (lists, comparisons)
    }
}

/// Greedy Hyrec restricted to `users`, merged into `out` (Algorithm 2's
/// expensive branch; the local loop is `hyrec_partial_counted`'s).
pub fn hyrec(
    users: &[UserId],
    sim: &SimilarityData<'_>,
    out: &SharedKnnGraph,
    rho: usize,
    delta: f64,
    seed: u64,
) {
    if users.len() < 2 {
        return;
    }
    let (lists, _) = hyrec_partial_counted(users, sim, out.k(), rho, delta, seed);
    for (i, &u) in users.iter().enumerate() {
        out.merge_into(u, &lists[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_dataset::Dataset;
    use cnc_similarity::{SimilarityBackend, SimilarityData};

    fn twins_dataset() -> Dataset {
        // 40 users in 4 groups of 10; users in the same group share most of
        // their profile.
        let mut profiles = Vec::new();
        for g in 0..4u32 {
            for i in 0..10u32 {
                let base: Vec<u32> = (g * 100..g * 100 + 20).collect();
                let mut p = base;
                p.push(1000 + g * 10 + i); // one personal item
                profiles.push(p);
            }
        }
        Dataset::from_profiles(profiles, 0)
    }

    #[test]
    fn brute_force_on_subset_only_touches_subset() {
        let ds = twins_dataset();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let out = SharedKnnGraph::new(ds.num_users(), 3);
        let users: Vec<u32> = (0..10).collect();
        brute_force(&users, &sim, &out);
        let graph = out.into_graph();
        for u in 0..10u32 {
            assert!(!graph.neighbors(u).is_empty());
            for nb in graph.neighbors(u).iter() {
                assert!(nb.user < 10, "edge to outside the cluster");
            }
        }
        for u in 10..40u32 {
            assert!(graph.neighbors(u).is_empty());
        }
        assert_eq!(sim.comparisons(), 45);
    }

    #[test]
    fn brute_force_handles_trivial_clusters() {
        let ds = twins_dataset();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let out = SharedKnnGraph::new(ds.num_users(), 3);
        brute_force(&[], &sim, &out);
        brute_force(&[5], &sim, &out);
        assert_eq!(sim.comparisons(), 0);
    }

    #[test]
    fn hyrec_small_cluster_falls_back_to_brute_force() {
        let ds = twins_dataset();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let out = SharedKnnGraph::new(ds.num_users(), 10);
        let users: Vec<u32> = (0..8).collect();
        hyrec(&users, &sim, &out, 5, 0.001, 7);
        // 8 users, k = 10 → brute force on 28 pairs.
        assert_eq!(sim.comparisons(), 28);
    }

    #[test]
    fn hyrec_converges_to_good_neighbors_within_cluster() {
        let ds = twins_dataset();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let out = SharedKnnGraph::new(ds.num_users(), 5);
        let users: Vec<u32> = (0..40).collect();
        hyrec(&users, &sim, &out, 5, 0.001, 3);
        let graph = out.into_graph();
        // Every user's best neighbour must be a same-group twin
        // (similarity ≈ 20/22) rather than a cross-group user (≈ 0).
        for u in 0..40u32 {
            let best = graph.best_neighbor(u).unwrap();
            assert_eq!(best.user / 10, u / 10, "user {u} matched to the wrong group");
            assert!(best.sim > 0.8);
        }
    }

    #[test]
    fn hyrec_costs_less_than_brute_force_on_large_clusters() {
        let ds = twins_dataset();
        let k = 2;
        let sim_hyrec = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let out = SharedKnnGraph::new(ds.num_users(), k);
        let users: Vec<u32> = (0..40).collect();
        hyrec(&users, &sim_hyrec, &out, 3, 0.001, 11);
        // Brute force would need 40·39/2 = 780 comparisons; greedy Hyrec
        // with k = 2 must use substantially fewer.
        assert!(
            sim_hyrec.comparisons() < 780,
            "hyrec used {} comparisons, no better than brute force",
            sim_hyrec.comparisons()
        );
    }

    #[test]
    fn partial_lists_align_with_users_and_stay_in_cluster() {
        let ds = twins_dataset();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let users: Vec<u32> = (10..20).collect();
        let (lists, _) = brute_force_partial_counted(&users, &sim, 3);
        assert_eq!(lists.len(), users.len());
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(list.len(), 3);
            for nb in list.iter() {
                assert!(users.contains(&nb.user), "edge to outside the cluster");
                assert_ne!(nb.user, users[i], "self loop");
            }
        }
        // Size-1 and size-0 clusters produce aligned (empty) lists.
        assert_eq!(brute_force_partial_counted(&[5], &sim, 3).0.len(), 1);
        assert!(brute_force_partial_counted(&[5], &sim, 3).0[0].is_empty());
        assert!(brute_force_partial_counted(&[], &sim, 3).0.is_empty());
    }

    #[test]
    fn partial_solvers_match_the_merging_entry_points() {
        let ds = twins_dataset();
        let users: Vec<u32> = (0..40).collect();
        let k = 5;
        for greedy in [false, true] {
            let sim_a = SimilarityData::build(SimilarityBackend::Raw, &ds);
            let out = SharedKnnGraph::new(ds.num_users(), k);
            let sim_b = SimilarityData::build(SimilarityBackend::Raw, &ds);
            let lists = if greedy {
                hyrec(&users, &sim_a, &out, 5, 0.001, 3);
                hyrec_partial_counted(&users, &sim_b, k, 5, 0.001, 3).0
            } else {
                brute_force(&users, &sim_a, &out);
                brute_force_partial_counted(&users, &sim_b, k).0
            };
            let slots = out.snapshot_ids();
            let merged = out.into_graph();
            assert_eq!(sim_a.comparisons(), sim_b.comparisons(), "greedy={greedy}");
            // The same offers in the same order: the same heaps, slot for
            // slot, before the freeze lays each row out worst first.
            for (i, &u) in users.iter().enumerate() {
                let ids: Vec<u32> = lists[i].iter().map(|n| n.user).collect();
                assert_eq!(ids, slots[u as usize], "greedy={greedy}: user {u}'s heap differs");
                assert_eq!(
                    lists[i].sorted(),
                    merged.neighbors(u).sorted(),
                    "greedy={greedy}: user {u} differs"
                );
            }
        }
    }

    #[test]
    fn batched_accounting_matches_pair_counts_on_goldfinger() {
        // The batched kernel path must report exactly the per-pair totals
        // of the seed behavior on both solver branches.
        let ds = twins_dataset();
        let backend = SimilarityBackend::GoldFinger { bits: 1024, seed: 13 };
        let sim = SimilarityData::build(backend, &ds);
        let users: Vec<u32> = (0..12).collect();
        brute_force_partial_counted(&users, &sim, 4);
        assert_eq!(sim.comparisons(), 12 * 11 / 2);

        // Small-cluster Hyrec degenerates to brute force: exact count.
        let sim = SimilarityData::build(backend, &ds);
        hyrec_partial_counted(&(0..9u32).collect::<Vec<_>>(), &sim, 10, 5, 0.001, 3);
        assert_eq!(sim.comparisons(), 9 * 8 / 2);

        // Greedy Hyrec: random init costs exactly n·k, and every further
        // comparison flows through the same batched counter.
        let sim = SimilarityData::build(backend, &ds);
        let users: Vec<u32> = (0..40).collect();
        hyrec_partial_counted(&users, &sim, 2, 0, 0.001, 11);
        assert_eq!(sim.comparisons(), 40 * 2, "rho = 0 leaves only the random init");
        let sim_full = SimilarityData::build(backend, &ds);
        hyrec_partial_counted(&users, &sim_full, 2, 3, 0.001, 11);
        assert!(sim_full.comparisons() > 40 * 2);
        assert!(sim_full.comparisons() < 780);
    }

    #[test]
    fn goldfinger_partial_lists_match_estimates_bitwise() {
        let ds = twins_dataset();
        let sim = SimilarityData::build(SimilarityBackend::GoldFinger { bits: 256, seed: 7 }, &ds);
        let gf = sim.goldfinger().unwrap();
        let users: Vec<u32> = (5..25).collect();
        let (lists, _) = brute_force_partial_counted(&users, &sim, 3);
        for (i, list) in lists.iter().enumerate() {
            for nb in list.iter() {
                let expect = gf.estimate(users[i], nb.user) as f32;
                assert_eq!(nb.sim.to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn merging_two_clusters_unions_neighborhoods() {
        let ds = twins_dataset();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let out = SharedKnnGraph::new(ds.num_users(), 4);
        // Two overlapping clusters both containing user 0.
        let a: Vec<u32> = (0..10).collect();
        let b: Vec<u32> = vec![0, 10, 11, 12];
        brute_force(&a, &sim, &out);
        brute_force(&b, &sim, &out);
        let graph = out.into_graph();
        // User 0 saw candidates from both clusters.
        assert_eq!(graph.neighbors(0).len(), 4);
    }
}
