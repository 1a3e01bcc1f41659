//! KNN-graph substrate: bounded neighbour lists, the graph container, and
//! the paper's quality metrics.
//!
//! A KNN graph connects each user `u` to `knn(u)`, the `k` most similar
//! users (§II-A). Every algorithm in the workspace — Brute Force, Hyrec,
//! NNDescent, LSH and Cluster-and-Conquer — produces a [`KnnGraph`]; the
//! approximation quality is measured by the average-similarity ratio of
//! Eq. (1)–(2), implemented in [`metrics`]. [`entry`] holds the graph's
//! companion [`EntryIndex`]: where a search of the graph should start.

pub mod batch;
pub mod entry;
pub mod metrics;
pub mod neighbors;
pub mod shared;

mod knn_graph;

pub use batch::{pairwise_lists, pairwise_shared};
pub use entry::{EntryIndex, SplitTree};
pub use knn_graph::KnnGraph;
pub use metrics::{avg_exact_similarity, quality};
pub use neighbors::{Neighbor, NeighborList, Neighbors};
pub use shared::SharedKnnGraph;
