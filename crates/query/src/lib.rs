//! KNN **query** layer over a constructed KNN graph.
//!
//! The paper (footnote 1) distinguishes building a complete KNN *graph*
//! from answering a sequence of KNN *queries*. In practice the two
//! compose: once C² has built the graph, it doubles as a navigable index
//! for out-of-sample queries (a new user's profile, a cold-start visitor)
//! via greedy **beam search** — the standard graph-based ANN technique the
//! KNN graph enables ("KNN graphs are the first step of more advanced
//! machine-learning techniques", §I).
//!
//! [`QueryIndex`] wraps a dataset + graph and answers
//! "which k users are most similar to this arbitrary profile?" by walking
//! neighbour links, expanding the best unvisited candidate until the beam
//! stabilizes — touching a tiny fraction of the users a brute-force scan
//! would. The walk starts where the paper says a greedy search should:
//! not at random users, but in the query's own FastRandomHash clusters.
//! Step 1 of the build records its split tree as an
//! [`cnc_graph::EntryIndex`]; the query profile is routed through the same
//! `t` hash functions and the beam is seeded with members of the clusters
//! it lands in. Random users only fill in when routing cannot supply
//! seeds (no index bound, an empty profile, an unseen bucket). There is
//! one search path: [`QueryIndex::search_batch`] loops it over a slice of
//! queries, and [`DynamicIndex`] insert placements seed through the same
//! routine.

pub mod beam;
pub mod dynamic;
pub mod index;
mod search;

pub use beam::BeamSearchConfig;
pub use dynamic::DynamicIndex;
pub use index::{BatchQuery, QueryIndex, QueryResult, Searcher};
