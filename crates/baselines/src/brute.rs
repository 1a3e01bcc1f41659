//! Exact KNN graph by exhaustive pairwise comparison (paper §IV-B1).
//!
//! "The Brute Force competitor simply computes the similarities between
//! every pair of profiles, performing a constant number of similarity
//! computations equal to n·(n−1)/2." Each pair is evaluated exactly once;
//! the result feeds both endpoints' bounded lists. Rows are self-scheduled
//! across threads with a small grain because row `u` costs `n − u − 1`
//! comparisons (a triangular workload).

use crate::{BuildContext, KnnAlgorithm};
use cnc_graph::{KnnGraph, NeighborList, SharedKnnGraph};
use cnc_similarity::kernel::{SimKernel, SimSolve};
use cnc_similarity::SimilarityData;
use cnc_threadpool::parallel_ranges;

/// The exact, exhaustive baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct BruteForce;

/// The whole triangular sweep, monomorphized per backend kernel by
/// [`SimilarityData::solve_global`]; each worker flushes its chunk's
/// comparison count in one batched add (totals unchanged: row `u` costs
/// exactly `n − u − 1` comparisons).
struct BruteGlobal<'a, 'b> {
    sim: &'a SimilarityData<'b>,
    shared: &'a SharedKnnGraph,
    k: usize,
    threads: usize,
}

impl SimSolve for BruteGlobal<'_, '_> {
    type Output = ();

    fn run<K: SimKernel>(self, kernel: &K) {
        let n = kernel.len();
        parallel_ranges(self.threads, n, 8, |range| {
            let mut computed = 0u64;
            for u in range {
                let u = u as u32;
                // Accumulate u's own row locally; offer the symmetric edge
                // to the shared graph, whose row floors refuse most offers
                // without locking. The batched row sweep streams the tail
                // fingerprints contiguously.
                let mut row = NeighborList::new(self.k);
                kernel.sweep_row(u, |v, s| {
                    row.insert(v, s);
                    self.shared.insert(v, u, s);
                });
                computed += (n as u64 - u as u64).saturating_sub(1);
                self.shared.merge_into(u, &row);
            }
            self.sim.add_comparisons(computed);
        });
    }
}

impl KnnAlgorithm for BruteForce {
    fn name(&self) -> &'static str {
        "BruteForce"
    }

    fn build(&self, ctx: &BuildContext<'_>) -> KnnGraph {
        let n = ctx.dataset.num_users();
        let shared = SharedKnnGraph::new(n, ctx.k);
        ctx.sim.solve_global(BruteGlobal {
            sim: ctx.sim,
            shared: &shared,
            k: ctx.k,
            threads: ctx.effective_threads(),
        });
        shared.into_graph()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::small_dataset;
    use cnc_dataset::Dataset;
    use cnc_similarity::{Jaccard, SimilarityBackend, SimilarityData};

    #[test]
    fn computes_exactly_n_choose_2_similarities() {
        let ds = small_dataset();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let ctx = BuildContext { dataset: &ds, sim: &sim, k: 5, threads: 2, seed: 1 };
        BruteForce.build(&ctx);
        let n = ds.num_users() as u64;
        assert_eq!(sim.comparisons(), n * (n - 1) / 2);
    }

    #[test]
    fn every_user_gets_k_neighbors() {
        let ds = small_dataset();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let ctx = BuildContext { dataset: &ds, sim: &sim, k: 10, threads: 4, seed: 1 };
        let graph = BruteForce.build(&ctx);
        for (_, list) in graph.iter() {
            assert_eq!(list.len(), 10);
        }
    }

    #[test]
    fn neighbors_are_the_true_top_k() {
        // Verify against a naive per-user argmax on a small dataset.
        let ds = Dataset::from_profiles(
            vec![
                vec![0, 1, 2, 3],
                vec![0, 1, 2, 4],
                vec![0, 1, 5, 6],
                vec![7, 8, 9],
                vec![7, 8, 9, 10],
            ],
            0,
        );
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let ctx = BuildContext { dataset: &ds, sim: &sim, k: 2, threads: 1, seed: 1 };
        let graph = BruteForce.build(&ctx);
        for u in ds.users() {
            let mut expected: Vec<(f64, u32)> = ds
                .users()
                .filter(|&v| v != u)
                .map(|v| (Jaccard::similarity(ds.profile(u), ds.profile(v)), v))
                .collect();
            expected.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
            let got: Vec<u32> = graph.neighbors(u).sorted().iter().map(|n| n.user).collect();
            let want: Vec<u32> = expected.iter().take(2).map(|&(_, v)| v).collect();
            assert_eq!(got, want, "wrong top-2 for user {u}");
        }
    }

    #[test]
    fn single_and_multi_thread_agree() {
        let ds = small_dataset();
        let sim1 = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let ctx1 = BuildContext { dataset: &ds, sim: &sim1, k: 7, threads: 1, seed: 1 };
        let g1 = BruteForce.build(&ctx1);
        let sim4 = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let ctx4 = BuildContext { dataset: &ds, sim: &sim4, k: 7, threads: 4, seed: 1 };
        let g4 = BruteForce.build(&ctx4);
        for u in ds.users() {
            assert_eq!(g1.neighbors(u).sorted(), g4.neighbors(u).sorted(), "user {u} differs");
        }
    }

    #[test]
    fn two_user_dataset() {
        let ds = Dataset::from_profiles(vec![vec![0, 1], vec![1, 2]], 0);
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let ctx = BuildContext { dataset: &ds, sim: &sim, k: 3, threads: 1, seed: 1 };
        let graph = BruteForce.build(&ctx);
        assert_eq!(graph.neighbors(0).len(), 1);
        assert_eq!(graph.best_neighbor(0).unwrap().user, 1);
        assert!((graph.best_neighbor(0).unwrap().sim - 1.0 / 3.0).abs() < 1e-6);
    }
}
