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

/// Writes the run's telemetry profile when `--profile-out <path>` was
/// given: the JSON registry/span profile at `path` and a Chrome
/// `trace_event` file (Perfetto-loadable) at `path` with `.trace.json`
/// appended. Best-effort — a bench run never fails on profile I/O.
pub fn write_profile(args: &HarnessArgs) {
    let Some(path) = &args.profile_out else { return };
    let telemetry = cnc_telemetry::Telemetry::global();
    if let Err(err) = std::fs::write(path, telemetry.json_profile()) {
        eprintln!("cannot write profile {} ({err}); continuing", path.display());
        return;
    }
    let mut trace = path.as_os_str().to_owned();
    trace.push(".trace.json");
    let trace = std::path::PathBuf::from(trace);
    if let Err(err) = std::fs::write(&trace, telemetry.chrome_trace()) {
        eprintln!("cannot write trace {} ({err}); continuing", trace.display());
    }
    eprintln!("  profile: {} (+ {})", path.display(), trace.display());
}
