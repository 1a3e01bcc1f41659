//! `cnc-serve`: snapshot-backed online KNN serving.
//!
//! PR 1–3 built the offline side of the paper's deployment story — a
//! sharded map builder with a spillable merge lane and monomorphized
//! similarity kernels. This crate is the **online** side those builds are
//! for: keeping a constructed KNN graph alive across processes and
//! serving it to concurrent clients under streaming freshness pressure
//! (§I: "online news recommenders, in which the use of fresh data is of
//! utmost importance").
//!
//! * [`snapshot`] — a versioned binary file format persisting a built
//!   [`KnnGraph`](cnc_graph::KnnGraph) + GoldFinger fingerprints +
//!   [`Dataset`](cnc_dataset::Dataset) with a magic/version header, a
//!   section table and per-section checksums. `write → load` round trips
//!   are bit-exact; corrupt files surface as typed [`SnapshotError`]s,
//!   never panics.
//! * [`server`] — a concurrent [`ServingEngine`]: readers query an
//!   `Arc`-swapped immutable [`ServingEpoch`] through the batched
//!   one-vs-many beam search, while a single writer absorbs streaming
//!   inserts into a [`DynamicIndex`](cnc_query::DynamicIndex) and
//!   periodically rebuilds + atomically publishes fresh epochs on the
//!   sharded [`Runtime`](cnc_runtime::Runtime).
//!
//! ```no_run
//! use cnc_serve::{ServingConfig, ServingEngine, Snapshot};
//! # let dataset = cnc_dataset::Dataset::from_profiles(vec![vec![1, 2, 3]; 10], 0);
//! let engine = ServingEngine::build(dataset, ServingConfig::default());
//! engine.snapshot().write("graph.snap").unwrap();
//! // …later, on a serving host…
//! let engine = ServingEngine::from_snapshot(
//!     Snapshot::load("graph.snap").unwrap(),
//!     ServingConfig::default(),
//! );
//! let top5 = engine.query(&[1, 2, 3], 5, 42);
//! # let _ = top5;
//! ```

pub mod mmap;
pub mod publish;
pub mod server;
pub mod snapshot;

pub use cnc_core::RebuildStats;
pub use mmap::AdoptedSnapshot;
pub use publish::{SnapshotAdopter, SnapshotPublisher};
pub use server::{
    BatchRequest, InsertOutcome, RebuildFailure, ServingConfig, ServingEngine, ServingEpoch,
    ServingSession, ServingStats,
};
pub use snapshot::{
    checksum64, quarantine_snapshot, sweep_temp_files, write_snapshot, write_snapshot_full,
    write_snapshot_parts_to, Snapshot, SnapshotError,
};

/// The crate's tests share one process, and with it the process-global
/// fault registry: a test that arms it holds this lock exclusively
/// ([`fault_lock`]), and every other test whose code crosses a fault site
/// — builds, spills, snapshot files — holds it shared ([`no_faults`]), so
/// none of them can run under a schedule it did not arm.
#[cfg(test)]
static FAULT_REGISTRY: std::sync::RwLock<()> = std::sync::RwLock::new(());

#[cfg(test)]
pub(crate) fn fault_lock() -> std::sync::RwLockWriteGuard<'static, ()> {
    FAULT_REGISTRY.write().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
pub(crate) fn no_faults() -> std::sync::RwLockReadGuard<'static, ()> {
    FAULT_REGISTRY.read().unwrap_or_else(|p| p.into_inner())
}
