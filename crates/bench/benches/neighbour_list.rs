//! Ablation of the bounded-neighbour-list design (`cnc_graph::neighbors`):
//! the flat sift-heap at the paper's k = 30 — the root test that rejects
//! most offers with one comparison against the linear dedup scan the rest
//! pay — plus the merge path of Algorithm 3.

use cnc_graph::NeighborList;
use cnc_similarity::SeededHash;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// A deterministic stream of (user, sim) candidates.
fn candidates(n: usize, seed: u64) -> Vec<(u32, f32)> {
    let hash = SeededHash::new(seed);
    (0..n as u64)
        .map(|i| {
            let h = hash.hash_u64(i);
            ((h >> 32) as u32 % 10_000, (h & 0xFFFF) as f32 / 65535.0)
        })
        .collect()
}

fn bench_insert_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighbour_list_insert_1000");
    let stream = candidates(1000, 5);
    for k in [10usize, 30, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bench, &k| {
            bench.iter(|| {
                let mut list = NeighborList::new(k);
                for &(user, sim) in &stream {
                    list.insert(black_box(user), black_box(sim));
                }
                list
            });
        });
    }
    group.finish();
}

fn bench_full_list_offers(c: &mut Criterion) {
    // What an offer to a full k = 30 list costs, by what it turns out to
    // be. A candidate below the root — almost every offer of a brute-force
    // cluster once its lists fill — is rejected by the root test alone;
    // a candidate that passes it pays the k-entry duplicate scan, whether
    // it then turns out to be a retained user or enters the list.
    let mut full = NeighborList::new(30);
    for i in 0..30u32 {
        full.insert(i, 0.5 + i as f32 / 100.0);
    }
    let mut group = c.benchmark_group("neighbour_list_full_k30");
    group.bench_function("below_root", |bench| {
        let mut list = full.clone();
        let mut user = 100u32;
        bench.iter(|| {
            user = user.wrapping_add(1);
            black_box(list.insert(black_box(user), black_box(0.1)))
        });
    });
    group.bench_function("retained_user_again", |bench| {
        let mut list = full.clone();
        bench.iter(|| black_box(list.insert(black_box(29), black_box(0.79))));
    });
    group.bench_function("above_root", |bench| {
        // Rising similarities keep every offer above the root: scan,
        // replace the root, sift down.
        let mut list = full.clone();
        let (mut user, mut sim) = (100u32, 1.0f32);
        bench.iter(|| {
            user = user.wrapping_add(1);
            sim += 1.0;
            black_box(list.insert(black_box(user), black_box(sim)))
        });
    });
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    // Algorithm 3's inner loop: merging a cluster-local top-k into the
    // global list.
    let stream = candidates(200, 9);
    let mut global = NeighborList::new(30);
    let mut partial = NeighborList::new(30);
    for &(user, sim) in &stream[..100] {
        global.insert(user, sim);
    }
    for &(user, sim) in &stream[100..] {
        partial.insert(user, sim);
    }
    c.bench_function("neighbour_list_merge_k30", |bench| {
        bench.iter(|| {
            let mut g = global.clone();
            g.merge(black_box(&partial))
        });
    });
}

criterion_group!(benches, bench_insert_stream, bench_full_list_offers, bench_merge);
criterion_main!(benches);
