//! `cnc-runtime`: a sharded map execution engine for C².
//!
//! The paper's §VIII observes that Cluster-and-Conquer is "particularly
//! amenable to large-scale distributed deployments, in particular within a
//! map-reduce infrastructure". `cnc_core::distributed` *simulates* such a
//! deployment — it computes an LPT [`DeploymentPlan`] and predicts makespan
//! and merge volume from Algorithm 2's cost model. This crate **executes**
//! that plan:
//!
//! * a [`Runtime`] spawns `W` map worker threads;
//! * clusters are partitioned across workers exactly as `plan_deployment`
//!   assigns them, each worker draining its own queue largest-first;
//! * each worker solves its clusters locally — brute force below the
//!   `ρ·k²` crossover, greedy Hyrec above, reusing
//!   [`cnc_baselines::local`]'s partial solvers;
//! * each worker merges the partial per-user neighbour lists straight
//!   into one shared `n × k` neighbour arena ([`cnc_graph::SharedKnnGraph`],
//!   Algorithm 3 under per-row locks) — or, under [`SpillMode::Always`],
//!   appends them to its own **spill file** in a length-prefixed binary
//!   format, replayed into the same arena once the worker is done (the
//!   out-of-core lane of a real MapReduce, in miniature); the arena then
//!   freezes in place into the [`cnc_graph::KnnGraph`];
//! * an idle worker **steals** half the queue of the most-loaded peer,
//!   absorbing stragglers the static LPT plan cannot predict.
//!
//! The run produces a [`RuntimeReport`] with *measured* per-worker busy
//! time, makespan, imbalance and spill traffic, next to the cost model's
//! predicted figures (`cargo run --release --example sharded_build`).
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
pub mod report;
pub mod shuffle;

pub use config::{RuntimeConfig, SpillMode};
pub use engine::{IncrementalShardedResult, Runtime, ShardedResult};
pub use report::{RuntimeReport, WorkerStats};
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
