//! cnc-distrib: the §VIII deployment plan as real processes.
//!
//! The in-process engine runs the map stage over threads, merging into
//! one shared arena; this crate runs a map/shuffle/reduce decomposition
//! over worker **processes** — the current binary re-exec'd in
//! `--distrib-worker` mode — with the runtime's spill codec as the wire
//! format. Map workers solve their assigned clusters and ship partial
//! neighbour lists, routed by [`partition_of`], to the coordinator's
//! reduce shards; the coordinator merges the partitions and publishes
//! like the serving writer. Because the codec is lossless (raw `f32` bits) and the
//! bounded-heap merge is order-independent, the distributed graph is
//! **bit-identical** to [`cnc_core::ClusterAndConquer::build`] —
//! `tests/conformance.rs` pins that over processes × shards × transports,
//! and `tests/distrib.rs` with a worker killed mid-build.
//!
//! The single-process `Runtime` is the degenerate case: one process, no
//! shards, no wire.
//!
//! # Joining a build
//!
//! Any binary that a coordinator may use as a worker calls
//! [`maybe_run_worker`] first thing in `main`, before touching stdout:
//!
//! ```no_run
//! // first line of main(), before touching stdout:
//! cnc_distrib::maybe_run_worker(); // never returns in worker mode
//! ```

pub mod coordinator;
pub mod error;
pub mod transport;
pub mod wire;
pub mod worker;

pub use coordinator::{
    DistribConfig, DistribPublisher, DistribReport, DistribResult, DistribRuntime, KillSpec,
    ProcExit, ProcStats, MAX_CLUSTER_ATTEMPTS,
};
pub use error::DistribError;
pub use transport::Transport;
pub use wire::{partition_of, ReducePartition};
pub use worker::{maybe_run_worker, run_worker};
