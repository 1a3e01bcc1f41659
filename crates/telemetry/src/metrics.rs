//! The metric registry: sharded counters, gauges and log-linear
//! histograms.
//!
//! Everything here is hand-rolled on `std` atomics (the workspace builds
//! offline; no registry crates). The design constraints, in order:
//!
//! * **Recording is lock-free.** A [`Counter`] add is one relaxed
//!   `fetch_add` on a thread-striped shard; a [`Histogram`] record is one
//!   bucket `fetch_add` plus the count/sum/min/max bookkeeping. Handles
//!   are `Arc`s resolved once through the registry lock and then cached by
//!   the instrumented layer, so the hot path never touches a map.
//! * **Totals are exact.** Sharding and relaxed ordering lose no
//!   increments — only the *observation* is unsynchronized, which is fine
//!   for monitoring (the multi-thread stress test in `tests/telemetry.rs`
//!   locks this down).
//! * **Histograms are bounded.** The log-linear bucket scheme (HDR-style:
//!   32 linear sub-buckets per power of two) covers the full `u64` range
//!   in [`Histogram::NUM_BUCKETS`] buckets with ≤ 1/32 ≈ 3.1% relative
//!   bucket width — latency percentiles without an unbounded sample
//!   `Vec`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Stripes per [`Counter`] (a power of two; enough that 16 worker threads
/// rarely collide on one cache line).
pub const COUNTER_SHARDS: usize = 16;

/// One cache line per shard so concurrent adders don't false-share.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

impl PaddedU64 {
    const fn zero() -> Self {
        PaddedU64(AtomicU64::new(0))
    }
}

/// The shard a thread's increments land on — assigned round-robin on
/// first use, stable for the thread's lifetime.
fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A monotonically increasing, thread-striped counter.
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter { shards: [const { PaddedU64::zero() }; COUNTER_SHARDS] }
    }

    /// Adds `n` (one relaxed `fetch_add` on the calling thread's shard).
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The exact total across all shards.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    /// Zeroes every shard (tests and bench phase boundaries).
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.0.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A last-write-wins signed gauge (epoch numbers, pending queue depths).
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// Linear sub-buckets per power of two: 2^5 = 32, i.e. ≤ 3.1% relative
/// bucket width everywhere above the linear range.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;

/// A log-linear (HDR-style) histogram over `u64` values.
///
/// Values below 32 get exact unit buckets; above that, each power-of-two
/// octave is split into 32 linear sub-buckets, so a bucket's lower bound
/// is `(32 + sub) << (octave - 1)` and **every power of two is itself a
/// bucket boundary** (locked by proptests). Recording is lock-free;
/// [`Histogram::merge`] folds another histogram in bucket-by-bucket and is
/// exactly equivalent to having recorded both streams into one histogram.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Total buckets covering the full `u64` range.
    pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..Self::NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index `value` lands in.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value < SUB as u64 {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros();
            let octave = msb - SUB_BITS + 1;
            let sub = (value >> (msb - SUB_BITS)) & (SUB as u64 - 1);
            octave as usize * SUB + sub as usize
        }
    }

    /// The smallest value mapping to bucket `index` (the inverse of
    /// [`Histogram::bucket_index`] on bucket boundaries).
    #[inline]
    pub fn bucket_lower_bound(index: usize) -> u64 {
        let octave = index / SUB;
        let sub = (index % SUB) as u64;
        if octave == 0 {
            sub
        } else {
            (SUB as u64 + sub) << (octave - 1)
        }
    }

    /// Records one observation (lock-free; exact counts under any
    /// interleaving).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Folds `other` into `self` bucket-by-bucket. Equivalent to having
    /// recorded `other`'s stream into `self` directly (proptested).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min.fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let min = self.min.load(Ordering::Relaxed);
        if min == u64::MAX {
            0
        } else {
            min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), reported as the lower bound of
    /// the bucket holding the target rank — at most one bucket (≤ 3.1%)
    /// below the exact order statistic, and monotone in `q` (proptested).
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= target {
                return Self::bucket_lower_bound(index);
            }
        }
        Self::bucket_lower_bound(Self::NUM_BUCKETS - 1)
    }

    /// The non-empty buckets as `(lower bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (Self::bucket_lower_bound(i), n))
            })
            .collect()
    }

    /// Clears every bucket and statistic.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A metric's identity: name plus sorted label pairs. `BTreeMap` keys, so
/// exports iterate deterministically.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// The metric name (Prometheus-style snake case).
    pub name: String,
    /// Label pairs, sorted by key at registration.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }
}

/// The registry of declared metric families. Registration takes a lock
/// and returns an `Arc` handle; recording through the handle never locks.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<MetricKey, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<MetricKey, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<MetricKey, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter `name` with `labels` (registered on first use).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter registry poisoned");
        Arc::clone(map.entry(MetricKey::new(name, labels)).or_default())
    }

    /// The gauge `name` with `labels` (registered on first use).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("gauge registry poisoned");
        Arc::clone(map.entry(MetricKey::new(name, labels)).or_default())
    }

    /// The histogram `name` with `labels` (registered on first use).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram registry poisoned");
        Arc::clone(map.entry(MetricKey::new(name, labels)).or_default())
    }

    /// A point-in-time snapshot of every counter, deterministic order.
    pub fn counter_values(&self) -> Vec<(MetricKey, u64)> {
        let map = self.counters.lock().expect("counter registry poisoned");
        map.iter().map(|(k, c)| (k.clone(), c.value())).collect()
    }

    /// A point-in-time snapshot of every gauge, deterministic order.
    pub fn gauge_values(&self) -> Vec<(MetricKey, i64)> {
        let map = self.gauges.lock().expect("gauge registry poisoned");
        map.iter().map(|(k, g)| (k.clone(), g.value())).collect()
    }

    /// Every histogram handle, deterministic order.
    pub fn histogram_handles(&self) -> Vec<(MetricKey, Arc<Histogram>)> {
        let map = self.histograms.lock().expect("histogram registry poisoned");
        map.iter().map(|(k, h)| (k.clone(), Arc::clone(h))).collect()
    }

    /// Zeroes every registered metric (handles stay valid).
    pub fn reset(&self) {
        for (_, c) in self.counters.lock().expect("counter registry poisoned").iter() {
            c.reset();
        }
        for (_, g) in self.gauges.lock().expect("gauge registry poisoned").iter() {
            g.set(0);
        }
        for (_, h) in self.histograms.lock().expect("histogram registry poisoned").iter() {
            h.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_totals_are_exact() {
        let c = Counter::new();
        c.add(3);
        c.inc();
        assert_eq!(c.value(), 4);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(7);
        g.add(-2);
        assert_eq!(g.value(), 5);
    }

    #[test]
    fn bucket_index_is_exact_below_the_linear_range() {
        for v in 0..SUB as u64 {
            assert_eq!(Histogram::bucket_lower_bound(Histogram::bucket_index(v)), v);
        }
    }

    #[test]
    fn powers_of_two_are_bucket_boundaries() {
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            let idx = Histogram::bucket_index(v);
            assert_eq!(Histogram::bucket_lower_bound(idx), v, "2^{shift} not a boundary");
        }
    }

    #[test]
    fn bucket_lower_bounds_are_strictly_increasing() {
        let bounds: Vec<u64> =
            (0..Histogram::NUM_BUCKETS).map(Histogram::bucket_lower_bound).collect();
        for pair in bounds.windows(2) {
            assert!(pair[0] < pair[1], "bounds not increasing at {pair:?}");
        }
    }

    #[test]
    fn extremes_stay_in_range() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert!(Histogram::bucket_index(u64::MAX) < Histogram::NUM_BUCKETS);
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn quantiles_of_a_known_stream() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        // Below-32 values have exact unit buckets.
        assert_eq!(h.quantile(0.01), 1);
        assert_eq!(h.quantile(0.25), 25);
        // Above 32 the answer is the bucket's lower bound: ≤ the exact
        // order statistic, within one 1/32 bucket of it.
        let p99 = h.quantile(0.99);
        assert!((96..=99).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(0.0), 1, "q=0 is the first recorded bucket");
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn merge_matches_direct_recording() {
        let (a, b, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [1u64, 5, 40, 700, 700, 1 << 40] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 40, 9_999] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.nonzero_buckets(), both.nonzero_buckets());
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum(), both.sum());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn registry_returns_the_same_handle_per_key() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", &[("k", "v")]);
        let b = reg.counter("x_total", &[("k", "v")]);
        let other = reg.counter("x_total", &[("k", "w")]);
        a.add(2);
        b.add(1);
        other.add(10);
        assert_eq!(a.value(), 3);
        let values = reg.counter_values();
        assert_eq!(values.len(), 2);
        assert_eq!(values[0].0, MetricKey::new("x_total", &[("k", "v")]));
        assert_eq!(values[0].1, 3);
        assert_eq!(values[1].1, 10);
    }

    #[test]
    fn registry_reset_keeps_handles_valid() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a_total", &[]);
        let h = reg.histogram("lat_ns", &[]);
        let g = reg.gauge("depth", &[]);
        c.add(5);
        h.record(9);
        g.set(3);
        reg.reset();
        assert_eq!(c.value(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(g.value(), 0);
        c.inc();
        assert_eq!(reg.counter_values()[0].1, 1);
    }

    #[test]
    fn label_order_does_not_split_families() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("t", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("t", &[("b", "2"), ("a", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.value(), 2);
    }
}
