//! Cluster-and-Conquer: fast KNN-graph construction via FastRandomHash
//! pre-clustering.
//!
//! This is the facade crate of the reproduction of *Cluster-and-Conquer:
//! When Randomness Meets Graph Locality* (Giakkoupis, Kermarrec, Ruas,
//! Taïani — ICDE 2021). It re-exports the public API of the workspace
//! crates; see `README.md` for an overview and `examples/quickstart.rs` for
//! a 20-line end-to-end run.
//!
//! ```
//! use cluster_and_conquer::prelude::*;
//!
//! let dataset = SyntheticConfig::small(42).generate();
//! let config = C2Config { k: 8, ..C2Config::default() };
//! let result = ClusterAndConquer::new(config).build(&dataset);
//! assert_eq!(result.graph.num_users(), dataset.num_users());
//! ```

pub use cnc_baselines as baselines;
pub use cnc_core as core;
pub use cnc_dataset as dataset;
pub use cnc_distrib as distrib;
pub use cnc_eval as eval;
pub use cnc_faults as faults;
pub use cnc_graph as graph;
pub use cnc_query as query;
pub use cnc_runtime as runtime;
pub use cnc_serve as serve;
pub use cnc_similarity as similarity;
pub use cnc_telemetry as telemetry;
pub use cnc_threadpool as threadpool;

/// Commonly used items, importable with one `use`.
pub mod prelude {
    pub use cnc_baselines::{BruteForce, BuildContext, Hyrec, KnnAlgorithm, Lsh, NnDescent};
    pub use cnc_core::{BuildPlan, C2Config, ClusterAndConquer, ClusterCache, RebuildStats};
    pub use cnc_dataset::{
        CrossValidation, Dataset, DatasetProfile, DatasetStats, SyntheticConfig,
    };
    pub use cnc_distrib::{DistribConfig, DistribPublisher, DistribRuntime, Transport};
    pub use cnc_eval::{quality, KnnClassifier, Recommender};
    pub use cnc_faults::{FaultPlan, Faults};
    pub use cnc_graph::{EntryIndex, KnnGraph};
    pub use cnc_query::{BeamSearchConfig, DynamicIndex, QueryIndex};
    pub use cnc_runtime::{Runtime, RuntimeConfig, SpillMode};
    pub use cnc_serve::{ServingConfig, ServingEngine, Snapshot};
    pub use cnc_similarity::{GoldFinger, Jaccard, SimilarityBackend};
    pub use cnc_telemetry::Telemetry;
}
