//! NNDescent: greedy KNN-graph construction by pairwise neighbour
//! comparison (Dong et al., WWW'11; paper §IV-B2).
//!
//! Where Hyrec compares `u` against its neighbours-of-neighbours, NNDescent
//! "compares all pairs (ui, uj) among the neighbors of u, and updates the
//! neighborhoods of ui and uj accordingly". Following the original
//! algorithm, the neighbourhood of `u` is extended with *reverse*
//! neighbours (sampled down to `k`), and the incremental-search optimization
//! only forms pairs in which at least one side is *new* since the previous
//! iteration. Termination uses the same `δ·k·|U|` rule as Hyrec.

use crate::{BuildContext, KnnAlgorithm};
use cnc_dataset::UserId;
use cnc_graph::{KnnGraph, SharedKnnGraph};
use cnc_similarity::kernel::{SimKernel, SimSolve};
use cnc_similarity::SimilarityData;
use cnc_threadpool::parallel_ranges;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// The NNDescent greedy baseline.
#[derive(Clone, Copy, Debug)]
pub struct NnDescent {
    /// Hard cap on iterations (paper: 30).
    pub max_iterations: usize,
    /// Convergence threshold δ of the `δ·k·|U|` rule (paper: 0.001).
    pub delta: f64,
}

impl Default for NnDescent {
    fn default() -> Self {
        NnDescent { max_iterations: 30, delta: 0.001 }
    }
}

impl NnDescent {
    /// Builds, for every user, the candidate pool `B[u]` = forward ∪ sampled
    /// reverse neighbours, and marks which entries are new vs `prev`.
    fn candidate_pools(
        ids: &[Vec<UserId>],
        prev: &[Vec<UserId>],
        k: usize,
        seed: u64,
        iteration: usize,
    ) -> Vec<(Vec<UserId>, Vec<bool>)> {
        let n = ids.len();
        // Reverse adjacency, sampled to k per user for bounded work
        // (the original algorithm's ρ-sampling with ρ = 1 pool of size k).
        let mut reverse: Vec<Vec<UserId>> = vec![Vec::new(); n];
        for (u, list) in ids.iter().enumerate() {
            for &v in list {
                reverse[v as usize].push(u as UserId);
            }
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ (iteration as u64).wrapping_mul(0x9E37_79B9));
        for rev in &mut reverse {
            if rev.len() > k {
                rev.shuffle(&mut rng);
                rev.truncate(k);
            }
        }
        (0..n)
            .map(|u| {
                let mut pool: Vec<UserId> =
                    ids[u].iter().chain(reverse[u].iter()).copied().collect();
                pool.sort_unstable();
                pool.dedup();
                // An entry is "old" only if it was already a forward
                // neighbour of u in the previous iteration.
                let flags: Vec<bool> = pool.iter().map(|v| !prev[u].contains(v)).collect();
                (pool, flags)
            })
            .collect()
    }
}

/// The whole descent loop, monomorphized per backend kernel. Each worker
/// counts its similarities locally and flushes one batched add per chunk
/// (totals unchanged vs the scalar per-pair accounting).
struct NnDescentGlobal<'a, 'b> {
    algo: NnDescent,
    sim: &'a SimilarityData<'b>,
    k: usize,
    threads: usize,
    seed: u64,
}

impl SimSolve for NnDescentGlobal<'_, '_> {
    type Output = KnnGraph;

    fn run<K: SimKernel>(self, kernel: &K) -> KnnGraph {
        let n = kernel.len();
        let mut init_comparisons = 0u64;
        let init = KnnGraph::random_init(n, self.k, self.seed, |u, v| {
            init_comparisons += 1;
            kernel.sim(u, v)
        });
        self.sim.add_comparisons(init_comparisons);
        let shared = SharedKnnGraph::from_graph(init);
        let mut prev: Vec<Vec<UserId>> = vec![Vec::new(); n];

        for iteration in 0..self.algo.max_iterations {
            let ids = shared.snapshot_ids();
            let pools = NnDescent::candidate_pools(&ids, &prev, self.k, self.seed, iteration);
            let updates = AtomicU64::new(0);
            parallel_ranges(self.threads, n, 32, |range| {
                let mut computed = 0u64;
                for u in range {
                    let (pool, is_new) = &pools[u];
                    let mut local_updates = 0u64;
                    for i in 0..pool.len() {
                        for j in (i + 1)..pool.len() {
                            // Incremental rule: skip pairs where both sides
                            // were already explored in earlier iterations.
                            if !is_new[i] && !is_new[j] {
                                continue;
                            }
                            let (a, b) = (pool[i], pool[j]);
                            let s = kernel.sim(a, b);
                            computed += 1;
                            local_updates += u64::from(shared.insert(a, b, s));
                            local_updates += u64::from(shared.insert(b, a, s));
                        }
                    }
                    updates.fetch_add(local_updates, Ordering::Relaxed);
                }
                self.sim.add_comparisons(computed);
            });
            prev = ids;
            if (updates.load(Ordering::Relaxed) as f64) < self.algo.delta * self.k as f64 * n as f64
            {
                break;
            }
        }
        shared.into_graph()
    }
}

impl KnnAlgorithm for NnDescent {
    fn name(&self) -> &'static str {
        "NNDescent"
    }

    fn build(&self, ctx: &BuildContext<'_>) -> KnnGraph {
        if ctx.dataset.num_users() == 0 {
            return KnnGraph::new(0, ctx.k);
        }
        ctx.sim.solve_global(NnDescentGlobal {
            algo: *self,
            sim: ctx.sim,
            k: ctx.k,
            threads: ctx.effective_threads(),
            seed: ctx.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{quality_against_exact, small_dataset};
    use cnc_dataset::Dataset;
    use cnc_similarity::{SimilarityBackend, SimilarityData};

    #[test]
    fn reaches_high_quality_on_clustered_data() {
        let ds = small_dataset();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let ctx = BuildContext { dataset: &ds, sim: &sim, k: 10, threads: 2, seed: 4 };
        let graph = NnDescent::default().build(&ctx);
        let q = quality_against_exact(&graph, &ds, 10);
        assert!(q > 0.85, "NNDescent quality {q:.3} too low");
    }

    /// For every seed 0..16. An iteration costs up to `n·C(2k, 2)` pairs
    /// (pools of ≤ k forward + k sampled reverse neighbours), and how many
    /// iterations run before the `δ·k·n` rule stops the descent depends on
    /// the seed, so "fewer than `n(n−1)/2`" is a per-seed bound only once
    /// `n` is large against that: on the 400-user `small_dataset` at k = 5
    /// five of these seeds spend more than brute force; on 800 users every
    /// one spends at most 69 % of it. One thread, because the update count
    /// that ends the descent depends on the order concurrent offers land.
    #[test]
    fn uses_fewer_comparisons_than_brute_force() {
        // `small_dataset`'s generator at twice the users.
        let mut cfg = cnc_dataset::SyntheticConfig::small(123);
        cfg.num_users = 800;
        cfg.num_items = 300;
        cfg.communities = 8;
        cfg.mean_profile = 25.0;
        cfg.min_profile = 10;
        let ds = cfg.generate();
        let n = ds.num_users() as u64;
        for seed in 0..16 {
            let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
            let ctx = BuildContext { dataset: &ds, sim: &sim, k: 5, threads: 1, seed };
            NnDescent::default().build(&ctx);
            assert!(sim.comparisons() < n * (n - 1) / 2, "seed {seed}: {}", sim.comparisons());
        }
    }

    #[test]
    fn candidate_pools_mark_new_entries() {
        let ids = vec![vec![1], vec![0], vec![0]];
        let prev = vec![vec![1], Vec::new(), Vec::new()];
        let pools = NnDescent::candidate_pools(&ids, &prev, 5, 1, 0);
        // u0: forward {1}, reverse {1, 2} → pool {1, 2}; 1 is old, 2 is new.
        assert_eq!(pools[0].0, vec![1, 2]);
        assert_eq!(pools[0].1, vec![false, true]);
    }

    #[test]
    fn candidate_pools_sample_reverse_to_k() {
        // Ten users all pointing at user 0.
        let mut ids = vec![Vec::new(); 11];
        for u in 1..11u32 {
            ids[u as usize] = vec![0];
        }
        let prev = vec![Vec::new(); 11];
        let pools = NnDescent::candidate_pools(&ids, &prev, 3, 7, 0);
        assert!(pools[0].0.len() <= 3, "reverse pool not sampled: {:?}", pools[0].0);
    }

    #[test]
    fn improves_over_random_initialization() {
        let ds = small_dataset();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let random = KnnGraph::random_init(ds.num_users(), 10, 4, |u, v| sim.sim(u, v));
        let random_avg = cnc_graph::avg_exact_similarity(&random, &ds);
        let ctx = BuildContext { dataset: &ds, sim: &sim, k: 10, threads: 1, seed: 4 };
        let graph = NnDescent::default().build(&ctx);
        let got = cnc_graph::avg_exact_similarity(&graph, &ds);
        assert!(got > 1.5 * random_avg, "{got:.4} vs random {random_avg:.4}");
    }

    #[test]
    fn handles_empty_dataset() {
        let ds = Dataset::from_profiles(vec![], 0);
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let ctx = BuildContext { dataset: &ds, sim: &sim, k: 3, threads: 1, seed: 1 };
        let graph = NnDescent::default().build(&ctx);
        assert_eq!(graph.num_users(), 0);
    }
}
