//! Dataset substrate for the Cluster-and-Conquer reproduction.
//!
//! The paper operates on *item-based datasets*: a set of users `U`, a set of
//! items `I`, and for each user `u` a *profile* `P_u ⊆ I` (the items the user
//! rated positively after binarization). This crate provides:
//!
//! * [`Dataset`] — an immutable, cache-friendly CSR (compressed sparse row)
//!   representation of all user profiles, the format every algorithm in the
//!   workspace consumes;
//! * [`DatasetBuilder`] and [`io`] — construction from raw `(user, item,
//!   rating)` triples, with the paper's binarization (keep ratings `> 3`) and
//!   minimum-profile-size filtering (`≥ 20` ratings);
//! * [`synthetic`] — seeded generators calibrated to the six datasets of the
//!   paper's Table I (MovieLens 1M/10M/20M, AmazonMovies, DBLP, Gowalla),
//!   used as the documented substitution for the real downloads;
//! * [`stats`] — the Table I statistics (users, items, ratings, average
//!   profile size, average item degree, density);
//! * [`split`] — the 5-fold cross-validation protocol used for the
//!   recommendation experiment (Table III);
//! * [`discrete`] — O(1) discrete sampling (Vose alias method), which the
//!   generators use to draw Zipf-distributed item popularity, the skew that
//!   drives FastRandomHash cluster imbalance in the paper.

pub mod dataset;
pub mod discrete;
pub mod io;
pub mod sampling;
pub mod split;
pub mod stats;
pub mod storage;
pub mod synthetic;

pub use dataset::{Dataset, DatasetBuilder, ItemId, UserId};
pub use sampling::{sample_profiles, SamplingPolicy};
pub use split::{CrossValidation, FoldSplit};
pub use stats::DatasetStats;
pub use storage::Storage;
pub use synthetic::{DatasetProfile, SyntheticConfig};
