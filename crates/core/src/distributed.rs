//! Distributed-deployment simulation (the paper's §VIII future work).
//!
//! "The general structure of Cluster-and-Conquer further makes it
//! particularly amenable to large-scale distributed deployments, in
//! particular within a map-reduce infrastructure." This module simulates
//! that deployment: clusters (the map tasks) are assigned to `W` workers
//! with the LPT heuristic (largest processing time first — the distributed
//! generalization of Step 2's largest-first queue), worker costs follow
//! Algorithm 2's similarity-count estimates, and the reduce phase's
//! communication volume is the per-cluster partial-KNN traffic of
//! Algorithm 3.
//!
//! The simulation answers the capacity-planning questions a deployment
//! would ask — parallel speed-up, load imbalance and shuffle volume — from
//! the clustering alone, without running the KNN computation.

use crate::clustering::Clustering;

/// Cost estimate of solving one cluster, in similarity computations —
/// Algorithm 2's model: brute force `|C|(|C|−1)/2` below the `ρ·k²`
/// crossover, greedy `ρ·k²·|C|/2` above.
pub fn cluster_cost(size: usize, k: usize, rho: usize) -> u64 {
    let n = size as u64;
    let brute = n * n.saturating_sub(1) / 2;
    if size < rho * k * k {
        brute
    } else {
        (rho * k * k) as u64 * n / 2
    }
}

/// A simulated assignment of clusters to workers.
#[derive(Clone, Debug)]
pub struct DeploymentPlan {
    /// `assignments[w]` = indices (into the clustering's cluster list) of
    /// the clusters mapped to worker `w`.
    pub assignments: Vec<Vec<usize>>,
    /// Estimated similarity computations per worker.
    pub worker_costs: Vec<u64>,
    /// Estimated entries (user, neighbour, sim) shipped in the reduce
    /// phase: `Σ_C |C| · k`.
    pub merge_traffic: u64,
}

impl DeploymentPlan {
    /// The bottleneck worker's cost (the map phase's makespan).
    pub fn makespan(&self) -> u64 {
        self.worker_costs.iter().copied().max().unwrap_or(0)
    }

    /// Total estimated work across all workers.
    pub fn total_cost(&self) -> u64 {
        self.worker_costs.iter().sum()
    }

    /// Estimated parallel speed-up over a single worker
    /// (`total / makespan`; ≤ the worker count).
    pub fn speedup(&self) -> f64 {
        let makespan = self.makespan();
        if makespan == 0 {
            return 1.0;
        }
        self.total_cost() as f64 / makespan as f64
    }

    /// Load imbalance: makespan divided by the ideal per-worker share
    /// (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let ideal = self.total_cost() as f64 / self.worker_costs.len() as f64;
        if ideal == 0.0 {
            return 1.0;
        }
        self.makespan() as f64 / ideal
    }
}

/// Plans a deployment of `clustering` over `workers` workers using LPT
/// (sort clusters by decreasing cost, assign each to the currently
/// least-loaded worker).
///
/// # Panics
/// Panics if `workers == 0`, `k == 0` or `rho == 0`.
pub fn plan_deployment(
    clustering: &Clustering,
    workers: usize,
    k: usize,
    rho: usize,
) -> DeploymentPlan {
    let sizes: Vec<usize> = clustering.clusters.iter().map(Vec::len).collect();
    plan_deployment_for(&sizes, workers, k, rho)
}

/// [`plan_deployment`] over bare cluster sizes — plan indices are
/// positions in `sizes`. This is the entry point for schedulers that plan
/// a *subset* of a clustering (the incremental engine plans only its
/// dirty clusters; `sizes[i]` is then the size of the i-th scheduled
/// cluster, and the caller maps plan indices back to global ones).
///
/// # Panics
/// Panics if `workers == 0`, `k == 0` or `rho == 0`.
pub fn plan_deployment_for(
    sizes: &[usize],
    workers: usize,
    k: usize,
    rho: usize,
) -> DeploymentPlan {
    assert!(workers > 0, "at least one worker is required");
    assert!(k > 0 && rho > 0, "k and rho must be positive");

    let mut indexed: Vec<(u64, usize)> =
        sizes.iter().enumerate().map(|(i, &size)| (cluster_cost(size, k, rho), i)).collect();
    indexed.sort_unstable_by(|a, b| b.cmp(a)); // decreasing cost, stable ids

    let mut assignments = vec![Vec::new(); workers];
    let mut worker_costs = vec![0u64; workers];
    for (cost, cluster) in indexed {
        // Least-loaded worker; ties to the lowest index for determinism.
        let w = (0..workers).min_by_key(|&w| (worker_costs[w], w)).unwrap();
        worker_costs[w] += cost;
        assignments[w].push(cluster);
    }

    let merge_traffic =
        sizes.iter().map(|&size| (size * k.min(size.saturating_sub(1))) as u64).sum();

    DeploymentPlan { assignments, worker_costs, merge_traffic }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::Clustering;

    fn clustering_with_sizes(sizes: &[usize]) -> Clustering {
        let mut next = 0u32;
        let clusters = sizes
            .iter()
            .map(|&s| {
                let c: Vec<u32> = (next..next + s as u32).collect();
                next += s as u32;
                c
            })
            .collect();
        Clustering {
            clusters,
            num_functions: 1,
            splits: 0,
            raw_cluster_counts: vec![sizes.len()],
            tree: Default::default(),
        }
    }

    #[test]
    fn cost_model_matches_algorithm_2() {
        let (k, rho) = (30, 5);
        // Below ρ·k² = 4500: brute force.
        assert_eq!(cluster_cost(100, k, rho), 100 * 99 / 2);
        // Above: Hyrec bound ρ·k²·|C|/2.
        assert_eq!(cluster_cost(5000, k, rho), 4500u64 * 5000 / 2);
        // At the exact boundary the paper's rule (`<` not `≤`) picks the
        // greedy estimate, which exceeds brute force by n/2 — faithfully
        // reproduced here.
        assert_eq!(cluster_cost(4500, k, rho), 4500u64 * 4500 / 2);
    }

    #[test]
    fn every_cluster_is_assigned_exactly_once() {
        let clustering = clustering_with_sizes(&[50, 30, 20, 10, 5, 5, 5]);
        let plan = plan_deployment(&clustering, 3, 10, 5);
        let mut seen: Vec<usize> = plan.assignments.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn lpt_beats_naive_round_robin_on_skewed_sizes() {
        // One giant cluster plus many small ones: round-robin in submission
        // order can pair the giant with extra load; LPT isolates it.
        let clustering = clustering_with_sizes(&[10, 10, 10, 10, 10, 10, 200]);
        let plan = plan_deployment(&clustering, 2, 10, 5);
        // Round-robin by index: worker0 = {0,2,4,6}, worker1 = {1,3,5}.
        let rr_worker0: u64 = [0usize, 2, 4, 6]
            .iter()
            .map(|&i| cluster_cost(clustering.clusters[i].len(), 10, 5))
            .sum();
        assert!(
            plan.makespan() < rr_worker0,
            "LPT makespan {} not better than round-robin {}",
            plan.makespan(),
            rr_worker0
        );
    }

    #[test]
    fn makespan_bounds_hold() {
        let clustering = clustering_with_sizes(&[40, 35, 30, 25, 20, 15, 10, 5]);
        let plan = plan_deployment(&clustering, 4, 10, 5);
        let total = plan.total_cost();
        assert!(plan.makespan() as f64 >= total as f64 / 4.0 - 1e-9);
        assert!(plan.makespan() <= total);
        assert!(plan.speedup() <= 4.0 + 1e-9);
        assert!(plan.imbalance() >= 1.0 - 1e-9);
    }

    #[test]
    fn more_workers_do_not_increase_makespan() {
        let clustering = clustering_with_sizes(&[64, 32, 32, 16, 16, 16, 8, 8, 8, 8]);
        let m2 = plan_deployment(&clustering, 2, 10, 5).makespan();
        let m4 = plan_deployment(&clustering, 4, 10, 5).makespan();
        let m8 = plan_deployment(&clustering, 8, 10, 5).makespan();
        assert!(m4 <= m2);
        assert!(m8 <= m4);
    }

    #[test]
    fn merge_traffic_counts_partial_knn_entries() {
        let clustering = clustering_with_sizes(&[10, 4]);
        let plan = plan_deployment(&clustering, 2, 3, 5);
        // Cluster of 10 ships 10·3 entries; cluster of 4 ships 4·3.
        assert_eq!(plan.merge_traffic, 30 + 12);
    }

    #[test]
    fn merge_traffic_caps_at_cluster_degree() {
        // A cluster of 2 with k = 30 can only produce 1 neighbour per user.
        let clustering = clustering_with_sizes(&[2]);
        let plan = plan_deployment(&clustering, 1, 30, 5);
        assert_eq!(plan.merge_traffic, 2);
    }

    #[test]
    fn empty_clustering_yields_trivial_plan() {
        let clustering = clustering_with_sizes(&[]);
        let plan = plan_deployment(&clustering, 3, 10, 5);
        assert_eq!(plan.makespan(), 0);
        assert_eq!(plan.speedup(), 1.0);
        assert_eq!(plan.merge_traffic, 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        plan_deployment(&clustering_with_sizes(&[1]), 0, 10, 5);
    }
}
