//! `cnc-runtime`: a sharded map-reduce execution engine for C².
//!
//! The paper's §VIII observes that Cluster-and-Conquer is "particularly
//! amenable to large-scale distributed deployments, in particular within a
//! map-reduce infrastructure". `cnc_core::distributed` *simulates* such a
//! deployment — it computes an LPT [`DeploymentPlan`] and predicts makespan
//! and shuffle volume from Algorithm 2's cost model. This crate **executes**
//! that plan:
//!
//! * a [`Runtime`] spawns `W` worker shards (map stage) and `R` reduce
//!   shards;
//! * clusters are partitioned across workers exactly as `plan_deployment`
//!   assigns them, each worker draining its own queue largest-first;
//! * each worker solves its clusters locally — brute force below the
//!   `ρ·k²` crossover, greedy Hyrec above, reusing
//!   [`cnc_baselines::local`]'s partial solvers;
//! * partial per-user neighbour lists are **hash-partitioned by user**
//!   ([`shuffle::partition_of`]) and flow to the owning reduce shard
//!   through a bounded channel — or, above the configured [`SpillMode`]
//!   threshold, through per-`(worker, shard)` **spill files** in a
//!   length-prefixed binary format, replayed by the reducers once the map
//!   phase ends (a real MapReduce shuffle, in miniature);
//! * each reducer merges its user partition independently (Algorithm 3)
//!   *concurrently* with the map phase, and the final
//!   [`cnc_graph::KnnGraph`] is assembled by concatenating the partitions;
//! * idle workers **steal** queued clusters from the most-loaded peer
//!   (configurable via [`StealPolicy`]), absorbing stragglers the static
//!   LPT plan cannot predict.
//!
//! The run produces a [`RuntimeReport`] with *measured* per-worker busy
//! time, makespan, imbalance, per-reduce-shard busy time, shuffle skew and
//! spill traffic, so the bench layer can plot predicted-vs-measured
//! speed-up from the cost model
//! (`cargo run -p cnc-bench --release --bin scaling`).
//!
//! Every `(workers, reduce_shards, spill)` combination produces exactly
//! the single-process pipeline's graph — `tests/shuffle.rs` asserts the
//! full matrix — and [`Runtime::execute_incremental`] rebuilds from the
//! previous build's graph and cluster memberships: when the `BuildPlan`'s
//! patch stage takes the rebuild, no map, shuffle or reduce stage runs at
//! all (there are no partial lists to ship); when it declines, the build
//! is the map-reduce above (bit-identical to a from-scratch run either
//! way; `tests/incremental.rs`).
//!
//! [`DeploymentPlan`]: cnc_core::DeploymentPlan

pub mod config;
pub mod engine;
pub mod report;
pub mod shuffle;

pub use config::{RuntimeConfig, SpillMode, StealPolicy};
pub use engine::{IncrementalShardedResult, Runtime, ShardedBuild, ShardedResult};
pub use report::{ReduceStats, RuntimeReport, WorkerStats};
pub use shuffle::{partition_of, ReducePartition, ShuffleError};

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
