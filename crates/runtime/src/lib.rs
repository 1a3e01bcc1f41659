//! `cnc-runtime`: a sharded map execution engine for C².
//!
//! The paper's §VIII observes that Cluster-and-Conquer is "particularly
//! amenable to large-scale distributed deployments, in particular within a
//! map-reduce infrastructure". `cnc_core::distributed` *predicts* such a
//! deployment — an LPT [`DeploymentPlan`] with its makespan and merge
//! volume, from Algorithm 2's cost model. This crate **executes** the map
//! and merge stages in one process:
//!
//! * a [`Runtime`] solves every cluster as one job of Step 2's
//!   largest-first [`PriorityPool`](cnc_threadpool::PriorityPool) on `W`
//!   threads — in one process a shared decreasing queue already is LPT
//!   list scheduling, with free and perfect load balancing — each job
//!   behind the same `solve.cluster` fault gate as the incremental builds;
//! * a job solves its cluster locally — brute force below the `ρ·k²`
//!   crossover, greedy Hyrec above — into partial per-user lists, with
//!   [`cnc_baselines::local`]'s partial solvers;
//! * the partial lists are merged straight into one shared `n × k`
//!   neighbour arena ([`cnc_graph::SharedKnnGraph`], Algorithm 3 under
//!   per-row locks) — or, under [`SpillMode::Always`], appended to the
//!   build's one **spill stream** in a length-prefixed binary format,
//!   replayed into the same arena once every job has run (the out-of-core
//!   lane of a real MapReduce, in miniature); the arena then freezes in
//!   place into the [`cnc_graph::KnnGraph`].
//!
//! The run produces a [`RuntimeReport`]: the entries handed to the merge
//! (the measured counterpart of the plan's `merge_traffic`), the spill
//! traffic and the wall-clock of the map and merge stages
//! (`cargo run --release --example sharded_build` prints them beside the
//! plan's prediction).
//!
//! Every `(workers, spill)` combination produces exactly the
//! single-process pipeline's graph — `tests/shuffle.rs` asserts the full
//! matrix — and [`Runtime::execute_incremental`] rebuilds from the
//! previous build's graph and cluster memberships through the
//! `BuildPlan`'s patch stage, the in-process pipeline's one solve loop, on
//! the same worker budget. No map stage runs there: a cache the stage
//! cannot use counts as an empty one, and every cluster is solved straight
//! into the arena (bit-identical to a from-scratch run either way;
//! `tests/incremental.rs`).
//!
//! [`DeploymentPlan`]: cnc_core::DeploymentPlan

pub mod config;
pub mod engine;
pub mod shuffle;

pub use config::{RuntimeConfig, SpillMode};
pub use engine::{IncrementalShardedResult, Runtime, RuntimeReport, ShardedResult};
pub use shuffle::ShuffleError;

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
