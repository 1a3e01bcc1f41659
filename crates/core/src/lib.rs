//! Cluster-and-Conquer (C²): the paper's primary contribution.
//!
//! C² builds an approximate KNN graph in three steps (§II-C):
//!
//! 1. **Clustering** ([`clustering`]): every user is hashed by `t`
//!    [`frh::FastRandomHash`] functions into `t × b` clusters; clusters
//!    larger than `N` are recursively split by re-hashing on the next item
//!    (§II-D);
//! 2. **Scheduling + local KNN** ([`pipeline`]): clusters are processed
//!    largest-first by a thread pool; each cluster is solved independently
//!    with brute force when `|C| < ρ·k²` and greedy Hyrec otherwise
//!    (Algorithm 2);
//! 3. **Merging** ([`pipeline`]): partial neighbourhoods are merged into
//!    each user's global bounded heap, reusing the already-computed
//!    similarity values (Algorithm 3).
//!
//! [`theory`] validates the analytical properties (Theorems 1 and 2)
//! empirically, and [`minhash_variant`] provides the C²/MinHash ablation of
//! Table IV.

pub mod build_plan;
pub mod clustering;
pub mod config;
pub mod distributed;
pub mod frh;
pub mod minhash_variant;
pub mod pipeline;
pub mod theory;

pub use build_plan::{BuildPlan, ClusterCache, RebuildPath, RebuildStats};
pub use clustering::{cluster_dataset, Clustering};
pub use config::{C2Config, ClusteringScheme};
pub use distributed::{plan_deployment, DeploymentPlan};
pub use frh::FastRandomHash;
pub use pipeline::{C2Result, C2Stats, ClusterAndConquer, IncrementalResult};
