//! Evaluation substrate: KNN quality and the recommendation use-case.
//!
//! The paper evaluates KNN graphs on two axes: the quality ratio of
//! Eq. (2) (re-exported from `cnc-graph`) and the *practical* impact on
//! item recommendation (Table III) — a user-based collaborative-filtering
//! recommender fed by the KNN graph, scored by recall under 5-fold
//! cross-validation. [`groundtruth`] adds the serving-time axis: sampled
//! exact-KNN answers that score a serving epoch's recall@k.

pub mod classify;
pub mod crossval;
pub mod groundtruth;
pub mod recommend;

pub use classify::KnnClassifier;
pub use cnc_graph::metrics::{avg_exact_similarity, quality};
pub use crossval::{evaluate_recall, CrossValResult};
pub use groundtruth::{GroundTruth, GroundTruthConfig};
pub use recommend::Recommender;
