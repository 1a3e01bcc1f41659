//! Similarity substrate for the Cluster-and-Conquer reproduction.
//!
//! The cost model of the paper is the **number of similarity computations**:
//! every KNN-graph algorithm it studies (Brute Force, Hyrec, NNDescent, LSH,
//! C²) differs only in *which pairs* it compares. This crate provides:
//!
//! * [`jaccard`] — exact set similarity over sorted profiles;
//! * [`hash`] — a seeded family of fast 64-bit avalanche hash functions
//!   (SplitMix64 finalizer), the stand-in for the paper's Jenkins hash;
//! * [`goldfinger`] — the GoldFinger compact fingerprint (Guerraoui et al.,
//!   ICDE'19/WWW'20): a `B`-bit single-hash fingerprint per user, with a
//!   popcount-based Jaccard estimator. The paper runs *all* competitors on
//!   1024-bit GoldFinger fingerprints (§IV-C); Table V ablates it;
//! * [`minhash`] — MinHash buckets and signatures, used by the LSH baseline
//!   and the C²/MinHash ablation (Table IV);
//! * [`backend`] — [`SimilarityData`], the instrumented similarity oracle
//!   every algorithm consumes: it dispatches to raw Jaccard or GoldFinger
//!   and counts comparisons with a relaxed atomic;
//! * [`kernel`] — the batched hot path: monomorphized [`SimKernel`]s
//!   (fixed fingerprint widths, contiguous [`ClusterTile`]s) dispatched
//!   once per cluster via [`SimilarityData::solve_cluster`], with
//!   comparison accounting batched into one flush.

pub mod backend;
pub mod goldfinger;
pub mod hash;
pub mod jaccard;
pub mod kernel;
pub mod minhash;

pub use backend::{SimilarityBackend, SimilarityData};
pub use goldfinger::GoldFinger;
pub use hash::SeededHash;
pub use jaccard::Jaccard;
pub use kernel::{ClusterTile, SimKernel, SimSolve};
pub use minhash::MinHasher;
