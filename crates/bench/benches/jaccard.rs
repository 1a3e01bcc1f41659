//! Micro-benchmarks of the similarity substrate: exact Jaccard vs the
//! GoldFinger estimator at every fingerprint width the paper explores
//! (64–8192 bits). This is the "why" of Table V: a GoldFinger comparison is
//! a few word-wise popcounts regardless of profile size.

use cnc_dataset::{Dataset, SyntheticConfig};
use cnc_similarity::{GoldFinger, Jaccard};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn profile_pair(len: usize) -> (Vec<u32>, Vec<u32>) {
    // 50% overlap, sorted, realistic id spread.
    let a: Vec<u32> = (0..len as u32).map(|i| i * 7).collect();
    let b: Vec<u32> = (len as u32 / 2..len as u32 * 3 / 2).map(|i| i * 7).collect();
    (a, b)
}

fn bench_exact_jaccard(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_jaccard");
    for len in [32usize, 96, 256, 1024] {
        let (a, b) = profile_pair(len);
        group.throughput(Throughput::Elements(len as u64));
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |bench, _| {
            bench.iter(|| Jaccard::similarity(black_box(&a), black_box(&b)));
        });
    }
    group.finish();
}

fn bench_goldfinger_estimate(c: &mut Criterion) {
    let mut group = c.benchmark_group("goldfinger_estimate");
    let ds = SyntheticConfig::small(1).generate();
    for bits in [64usize, 256, 1024, 4096, 8192] {
        let gf = GoldFinger::build(&ds, bits, 7);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| gf.estimate(black_box(10), black_box(20)));
        });
    }
    group.finish();
}

fn bench_goldfinger_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("goldfinger_build");
    group.sample_size(20);
    let ds: Dataset = SyntheticConfig::small(2).generate();
    for bits in [64usize, 1024, 8192] {
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, &bits| {
            bench.iter(|| GoldFinger::build(black_box(&ds), bits, 7));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exact_jaccard, bench_goldfinger_estimate, bench_goldfinger_build);
criterion_main!(benches);
