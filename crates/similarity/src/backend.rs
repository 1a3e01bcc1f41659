//! The instrumented similarity oracle consumed by every KNN algorithm.
//!
//! [`SimilarityData`] binds a dataset to a similarity implementation (exact
//! Jaccard on raw profiles, or the GoldFinger estimator — §II-F) and counts
//! every comparison. The comparison count is the paper's primary cost
//! metric and drives the Brute-Force-vs-Hyrec switch inside C²'s local
//! solver.
//!
//! Two call shapes coexist:
//!
//! * [`SimilarityData::sim`] — the scalar path: one enum dispatch and one
//!   relaxed `fetch_add` per pair. Convenient, and kept for cold paths and
//!   as the reference the kernels must match bit-for-bit.
//! * [`SimilarityData::solve_cluster`] / [`SimilarityData::solve_global`] —
//!   the batched path: one dispatch per *cluster* (gathering a contiguous
//!   [`ClusterTile`] for GoldFinger backends, picking the fixed-width
//!   kernel specialization), after which the solver runs monomorphized and
//!   flushes its comparison count in one [`SimilarityData::add_comparisons`].

use crate::goldfinger::GoldFinger;
use crate::jaccard::Jaccard;
use crate::kernel::{ClusterTile, RawKernel, Remap, SimSolve};
use cnc_dataset::{Dataset, UserId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which similarity implementation to use (paper §IV-C: all main experiments
/// run on 1024-bit GoldFinger; Table V ablates raw data).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimilarityBackend {
    /// Exact Jaccard over the raw sorted profiles.
    Raw,
    /// GoldFinger fingerprints of the given width (bits, multiple of 64).
    GoldFinger { bits: usize, seed: u64 },
}

impl Default for SimilarityBackend {
    /// The paper's default: 1024-bit GoldFinger.
    fn default() -> Self {
        SimilarityBackend::GoldFinger { bits: GoldFinger::DEFAULT_BITS, seed: 0xC0FFEE }
    }
}

impl SimilarityBackend {
    /// Checks that `fingerprints` are what this backend builds and scores
    /// with: a GoldFinger backend needs a set of its width and seed, and
    /// the raw backend takes none. A mismatch would score with
    /// similarities inconsistent with the configuration; `Err` says which.
    pub fn check_fingerprints(&self, fingerprints: Option<&GoldFinger>) -> Result<(), String> {
        match (*self, fingerprints) {
            (SimilarityBackend::GoldFinger { bits, seed }, Some(gf))
                if (bits, seed) != (gf.bits(), gf.seed()) =>
            {
                Err(format!(
                    "fingerprints must match the configured backend: \
                     built with {} bits and seed {}, configured {bits} bits and seed {seed}",
                    gf.bits(),
                    gf.seed()
                ))
            }
            (SimilarityBackend::GoldFinger { .. }, None) => {
                Err("a GoldFinger backend requires fingerprints".into())
            }
            (SimilarityBackend::Raw, Some(_)) => {
                Err("fingerprints require a GoldFinger backend, config says Raw".into())
            }
            _ => Ok(()),
        }
    }
}

enum Kind<'a> {
    Raw(&'a Dataset),
    /// Shared so one fingerprint build can back many oracles (bench
    /// repetitions, runtime workers) without re-hashing the dataset.
    GoldFinger(Arc<GoldFinger>),
}

/// A similarity oracle over one dataset, with comparison counting.
///
/// Shared immutably across worker threads; the counter uses relaxed atomics
/// (only the final total is observed).
pub struct SimilarityData<'a> {
    kind: Kind<'a>,
    comparisons: AtomicU64,
}

impl<'a> SimilarityData<'a> {
    /// Materializes the backend for `dataset` (builds fingerprints serially
    /// when the backend is GoldFinger; see [`SimilarityData::build_parallel`]).
    pub fn build(backend: SimilarityBackend, dataset: &'a Dataset) -> Self {
        Self::build_parallel(backend, dataset, 1)
    }

    /// Materializes the backend, building GoldFinger fingerprints on
    /// `threads` workers (0 = all cores). Bit-identical to
    /// [`SimilarityData::build`] for every thread count.
    pub fn build_parallel(
        backend: SimilarityBackend,
        dataset: &'a Dataset,
        threads: usize,
    ) -> Self {
        let kind = match backend {
            SimilarityBackend::Raw => Kind::Raw(dataset),
            SimilarityBackend::GoldFinger { bits, seed } => {
                Kind::GoldFinger(Arc::new(GoldFinger::build_parallel(dataset, bits, seed, threads)))
            }
        };
        SimilarityData { kind, comparisons: AtomicU64::new(0) }
    }

    /// An oracle over a pre-built, shared fingerprint set.
    ///
    /// This is how one `GoldFinger::build` is amortized across bench
    /// repetitions and runtime workers (ROADMAP: "share one
    /// `SimilarityData` fingerprint build across workers"): clone the `Arc`
    /// per consumer instead of re-hashing the full dataset. Each oracle
    /// still counts its own comparisons.
    pub fn from_goldfinger(goldfinger: Arc<GoldFinger>) -> SimilarityData<'static> {
        SimilarityData { kind: Kind::GoldFinger(goldfinger), comparisons: AtomicU64::new(0) }
    }

    /// The similarity of users `u` and `v` in `[0, 1]`, counted as one
    /// comparison.
    #[inline]
    pub fn sim(&self, u: UserId, v: UserId) -> f32 {
        self.comparisons.fetch_add(1, Ordering::Relaxed);
        self.sim_uncounted(u, v)
    }

    /// The similarity of users `u` and `v`, **without** touching the
    /// comparison counter — for batched callers that count locally and
    /// flush with [`SimilarityData::add_comparisons`].
    #[inline]
    pub fn sim_uncounted(&self, u: UserId, v: UserId) -> f32 {
        match &self.kind {
            Kind::Raw(ds) => Jaccard::similarity(ds.profile(u), ds.profile(v)) as f32,
            Kind::GoldFinger(gf) => gf.estimate(u, v) as f32,
        }
    }

    /// Credits `n` comparisons in one atomic add — the batched-accounting
    /// flush. `comparisons()` totals are identical to counting every pair
    /// individually as long as callers flush exactly what they computed.
    #[inline]
    pub fn add_comparisons(&self, n: u64) {
        if n > 0 {
            self.comparisons.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Runs `solver` against the monomorphized kernel for the cluster
    /// `users`: raw backends get a [`Remap`]ped exact-Jaccard kernel;
    /// GoldFinger backends get a contiguous [`ClusterTile`] (gathered here,
    /// once) at the matching fixed-width specialization. Kernel rows are
    /// cluster-local indices, positionally aligned with `users`.
    ///
    /// No comparisons are counted — the solver flushes its own total.
    pub fn solve_cluster<S: SimSolve>(&self, users: &[UserId], solver: S) -> S::Output {
        match &self.kind {
            Kind::Raw(ds) => solver.run(&Remap::new(users, RawKernel::new(ds))),
            Kind::GoldFinger(gf) => ClusterTile::gather(gf, users).solve(solver),
        }
    }

    /// Runs `solver` against the monomorphized kernel over **all** users
    /// (rows are global user ids) — the whole-dataset analogue of
    /// [`SimilarityData::solve_cluster`] used by the global baselines.
    /// GoldFinger backends need no gather: the fingerprint array is already
    /// contiguous in user order.
    ///
    /// No comparisons are counted — the solver flushes its own total.
    pub fn solve_global<S: SimSolve>(&self, solver: S) -> S::Output {
        match &self.kind {
            Kind::Raw(ds) => solver.run(&RawKernel::new(ds)),
            Kind::GoldFinger(gf) => {
                crate::kernel::solve_words(gf.words(), gf.words_per_user(), solver)
            }
        }
    }

    /// Total comparisons performed so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons.load(Ordering::Relaxed)
    }

    /// The GoldFinger fingerprints, if this backend uses them.
    pub fn goldfinger(&self) -> Option<&GoldFinger> {
        match &self.kind {
            Kind::GoldFinger(gf) => Some(gf),
            Kind::Raw(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{pair_count, pairwise, SimKernel};

    fn toy() -> Dataset {
        Dataset::from_profiles(vec![vec![1, 2, 3], vec![3, 4, 5], vec![1, 2, 3]], 0)
    }

    #[test]
    fn raw_backend_is_exact() {
        let ds = toy();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        assert!((sim.sim(0, 1) - 0.2).abs() < 1e-6);
        assert_eq!(sim.sim(0, 2), 1.0);
    }

    #[test]
    fn goldfinger_backend_estimates() {
        let ds = toy();
        let sim = SimilarityData::build(SimilarityBackend::GoldFinger { bits: 4096, seed: 1 }, &ds);
        assert!(sim.goldfinger().is_some());
        // With 5 items in 4096 bits the estimate is exact w.h.p.
        assert!((sim.sim(0, 1) - 0.2).abs() < 1e-6);
    }

    #[test]
    fn fingerprints_are_checked_against_the_backend() {
        let gf = GoldFinger::build(&toy(), 128, 7);
        let matching = SimilarityBackend::GoldFinger { bits: 128, seed: 7 };
        assert_eq!(matching.check_fingerprints(Some(&gf)), Ok(()));
        assert_eq!(SimilarityBackend::Raw.check_fingerprints(None), Ok(()));
        for other in [
            SimilarityBackend::GoldFinger { bits: 128, seed: 8 },
            SimilarityBackend::GoldFinger { bits: 256, seed: 7 },
        ] {
            let reason = other.check_fingerprints(Some(&gf)).unwrap_err();
            assert!(reason.contains("fingerprints must match the configured backend"), "{reason}");
        }
        let reason = matching.check_fingerprints(None).unwrap_err();
        assert!(reason.contains("requires fingerprints"), "{reason}");
        let reason = SimilarityBackend::Raw.check_fingerprints(Some(&gf)).unwrap_err();
        assert!(reason.contains("require a GoldFinger backend"), "{reason}");
    }

    #[test]
    fn comparisons_are_counted() {
        let ds = toy();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        assert_eq!(sim.comparisons(), 0);
        sim.sim(0, 1);
        sim.sim(1, 2);
        assert_eq!(sim.comparisons(), 2);
    }

    #[test]
    fn uncounted_sim_and_batched_flush_match_scalar_accounting() {
        let ds = toy();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let scalar = sim.sim(0, 1);
        assert_eq!(sim.sim_uncounted(0, 1).to_bits(), scalar.to_bits());
        assert_eq!(sim.comparisons(), 1, "sim_uncounted must not count");
        sim.add_comparisons(41);
        assert_eq!(sim.comparisons(), 42);
        sim.add_comparisons(0);
        assert_eq!(sim.comparisons(), 42);
    }

    #[test]
    fn counting_is_thread_safe() {
        let ds = toy();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        sim.sim(0, 1);
                    }
                });
            }
        });
        assert_eq!(sim.comparisons(), 4000);
    }

    #[test]
    fn default_backend_is_paper_goldfinger() {
        match SimilarityBackend::default() {
            SimilarityBackend::GoldFinger { bits, .. } => assert_eq!(bits, 1024),
            other => panic!("unexpected default {other:?}"),
        }
    }

    #[test]
    fn from_goldfinger_shares_one_build() {
        let ds = toy();
        let gf = Arc::new(GoldFinger::build(&ds, 256, 9));
        let built =
            SimilarityData::build(SimilarityBackend::GoldFinger { bits: 256, seed: 9 }, &ds);
        let shared = SimilarityData::from_goldfinger(Arc::clone(&gf));
        let again = SimilarityData::from_goldfinger(Arc::clone(&gf));
        // Same underlying fingerprints (pointer-equal), the values of a
        // fresh build, independent counters.
        assert!(std::ptr::eq(shared.goldfinger().unwrap(), again.goldfinger().unwrap()));
        assert_eq!(shared.sim(0, 1).to_bits(), built.sim(0, 1).to_bits());
        assert_eq!(built.comparisons(), 1);
        assert_eq!(shared.comparisons(), 1);
        assert_eq!(again.comparisons(), 0);
    }

    #[test]
    fn build_parallel_matches_serial_build() {
        let ds = toy();
        let backend = SimilarityBackend::GoldFinger { bits: 512, seed: 4 };
        let serial = SimilarityData::build(backend, &ds);
        let parallel = SimilarityData::build_parallel(backend, &ds, 0);
        assert_eq!(serial.goldfinger().unwrap().words(), parallel.goldfinger().unwrap().words());
    }

    #[test]
    fn solve_cluster_matches_scalar_sims_on_both_backends() {
        struct AllPairs<'a> {
            users: &'a [UserId],
        }
        impl SimSolve for AllPairs<'_> {
            type Output = Vec<(usize, usize, u32)>;
            fn run<K: SimKernel>(self, kernel: &K) -> Self::Output {
                assert_eq!(kernel.len(), self.users.len());
                let mut out = Vec::new();
                pairwise(kernel, |i, j, s| out.push((i as usize, j as usize, s.to_bits())));
                out
            }
        }
        let ds = toy();
        let users: Vec<UserId> = vec![2, 0, 1];
        for backend in
            [SimilarityBackend::Raw, SimilarityBackend::GoldFinger { bits: 1024, seed: 6 }]
        {
            let sim = SimilarityData::build(backend, &ds);
            let pairs = sim.solve_cluster(&users, AllPairs { users: &users });
            assert_eq!(sim.comparisons(), 0, "solve_cluster must not count");
            assert_eq!(pairs.len() as u64, pair_count(users.len()));
            for (i, j, bits) in pairs {
                assert_eq!(bits, sim.sim_uncounted(users[i], users[j]).to_bits());
            }
        }
    }

    #[test]
    fn solve_global_matches_scalar_sims_on_both_backends() {
        struct Row;
        impl SimSolve for Row {
            type Output = Vec<u32>;
            fn run<K: SimKernel>(self, kernel: &K) -> Self::Output {
                (1..kernel.len() as u32).map(|v| kernel.sim(0, v).to_bits()).collect()
            }
        }
        let ds = toy();
        for backend in
            [SimilarityBackend::Raw, SimilarityBackend::GoldFinger { bits: 192, seed: 2 }]
        {
            let sim = SimilarityData::build(backend, &ds);
            let row = sim.solve_global(Row);
            for (v, bits) in (1u32..3).zip(row) {
                assert_eq!(bits, sim.sim_uncounted(0, v).to_bits());
            }
        }
    }
}
