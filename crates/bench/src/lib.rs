//! Reproduction harness: the code that regenerates every table and figure
//! of the paper's evaluation (§IV–§VI).
//!
//! Each experiment lives in [`experiments`] as a function returning a
//! markdown-formatted report; the `src/bin/*` binaries are thin wrappers so
//! that `cargo run -p cnc-bench --release --bin table2` regenerates Table
//! II, etc. `repro_all` chains everything and rewrites `EXPERIMENTS.md`.
//!
//! All experiments run on the synthetic calibrations of the paper's six
//! datasets (see `cnc-dataset::synthetic` for the substitution) at a
//! configurable scale — the default `0.125` keeps the full suite within
//! laptop minutes while preserving the comparative shapes the paper
//! reports.

pub mod args;
pub mod experiments;
pub mod harness;

pub use args::HarnessArgs;
pub use harness::{measure, AlgoRun};
