//! Ablation benchmarks for two of the build's design choices:
//!
//! * the Algorithm 2 local-solver switch — brute force vs Hyrec on cluster
//!   sizes around the `ρ·k²` crossover;
//! * largest-first scheduling vs submission-order scheduling on a skewed
//!   cluster-size distribution (the paper's Step 2 heuristic).

use cnc_baselines::local;
use cnc_dataset::{Dataset, SyntheticConfig};
use cnc_graph::SharedKnnGraph;
use cnc_similarity::{SimilarityBackend, SimilarityData};
use cnc_threadpool::PriorityPool;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn dataset(users: usize) -> Dataset {
    let mut cfg = SyntheticConfig::small(31);
    cfg.num_users = users;
    cfg.num_items = 800;
    cfg.mean_profile = 40.0;
    cfg.generate()
}

/// Brute force vs Hyrec on one cluster, across the ρ·k² crossover
/// (k = 10, ρ = 5 → crossover at 500 users).
fn bench_local_solver_switch(c: &mut Criterion) {
    let k = 10;
    let mut group = c.benchmark_group("local_solver");
    group.sample_size(10);
    for size in [100usize, 500, 1500] {
        let ds = dataset(size);
        let sim = SimilarityData::build(SimilarityBackend::default(), &ds);
        let users: Vec<u32> = ds.users().collect();
        group.bench_with_input(BenchmarkId::new("brute_force", size), &size, |bench, _| {
            bench.iter(|| {
                let out = SharedKnnGraph::new(ds.num_users(), k);
                local::brute_force(black_box(&users), &sim, &out);
                out.into_graph().num_edges()
            });
        });
        group.bench_with_input(BenchmarkId::new("hyrec", size), &size, |bench, _| {
            bench.iter(|| {
                let out = SharedKnnGraph::new(ds.num_users(), k);
                local::hyrec(black_box(&users), &sim, &out, 5, 0.001, 3);
                out.into_graph().num_edges()
            });
        });
    }
    group.finish();
}

/// Largest-first vs submission-order scheduling of CPU-bound jobs with a
/// heavily skewed size distribution (one giant job + many small ones): the
/// paper's heuristic avoids the giant job landing last and serializing the
/// tail.
fn bench_scheduling(c: &mut Criterion) {
    // Job = spin over `size` hash computations.
    fn burn(size: u64) -> u64 {
        let hash = cnc_similarity::SeededHash::new(1);
        let mut acc = 0u64;
        for i in 0..size {
            acc = acc.wrapping_add(hash.hash_u64(i));
        }
        acc
    }
    // 63 small jobs then one giant job *submitted last* — worst case for
    // FIFO, ideal showcase for largest-first.
    let sizes: Vec<u64> = (0..63).map(|_| 40_000).chain([2_000_000]).collect();
    let mut group = c.benchmark_group("scheduling");
    group.sample_size(10);
    group.bench_function("largest_first", |bench| {
        bench.iter(|| {
            let jobs: Vec<(u64, u64)> = sizes.iter().map(|&s| (s, s)).collect();
            PriorityPool::run(4, jobs, |s| {
                black_box(burn(s));
            });
        });
    });
    group.bench_function("submission_order", |bench| {
        bench.iter(|| {
            // Equal priorities → stable submission order.
            let jobs: Vec<(u64, u64)> = sizes.iter().map(|&s| (0, s)).collect();
            PriorityPool::run(4, jobs, |s| {
                black_box(burn(s));
            });
        });
    });
    group.finish();
}

criterion_group!(benches, bench_local_solver_switch, bench_scheduling);
criterion_main!(benches);
