//! Zero-copy epoch adoption benchmark: the cost of bringing a published
//! snapshot into a serving process, by load path.
//!
//! Three measurements on one engine built at the serve bench's scale:
//!
//! 1. **Cold copy-load** — `AdoptedSnapshot::load_copied` (full decode
//!    into owned arrays) followed by `engine.adopt`, the only path v1
//!    files and non-mmap platforms have.
//! 2. **Mmap adoption** — `AdoptedSnapshot::open` (map the file, verify
//!    section checksums, borrow the CSR arrays in place) followed by
//!    `engine.adopt`. The claim is *zero copies*, and it is reported as a
//!    count: `borrowed_share`, the share of the file's bytes the adopted
//!    epoch serves in place (the rest is the section table and the
//!    builder's membership section, which adoption never reads; the copy
//!    path reads 0). Both paths verify every byte they serve, so the
//!    latency ratio is a constant, not an order of magnitude: about 2×
//!    from 512 to 16k users (3.0× on the `perf` benchmark's 70k-user
//!    file).
//! 3. **Publish → adopt lag** — a `SnapshotPublisher` writing
//!    `epoch-<seq>.snap` into a directory and a `SnapshotAdopter` on a
//!    second engine polling it: the end-to-end freshness lag of the
//!    builder/replica split.
//!
//! Latencies are medians over a handful of repetitions (page-cache-warm,
//! like a replica re-adopting on the same host); the measured figures
//! merge into `BENCH_serve.json` under the `"snapshot"` key, the same
//! read-modify-write splice the scaling sweep uses for `"distrib"` in
//! `BENCH_kernels.json`.

use crate::args::HarnessArgs;
use cnc_core::C2Config;
use cnc_faults::{silence_injected_panics, Faults, Site};
use cnc_query::BeamSearchConfig;
use cnc_runtime::RuntimeConfig;
use cnc_serve::{
    AdoptedSnapshot, ServingConfig, ServingEngine, SnapshotAdopter, SnapshotPublisher,
};
use cnc_similarity::SimilarityBackend;
use std::time::Instant;

#[cfg(not(test))]
use serde::{json, Value};

/// Repetitions per load path; medians smooth scheduler noise without
/// turning the smoke run into a soak.
const REPS: usize = if cfg!(debug_assertions) { 3 } else { 9 };

/// The structured result (rendered to markdown and spliced into
/// `BENCH_serve.json`).
#[derive(Clone, Debug)]
pub struct SnapshotReport {
    /// Users in the snapshotted epoch.
    pub num_users: usize,
    /// Encoded snapshot size on disk, bytes.
    pub file_bytes: u64,
    /// Median cold copy-load + adopt latency, milliseconds.
    pub copy_adopt_ms: f64,
    /// Median mmap + verify + adopt latency, milliseconds.
    pub mmap_adopt_ms: f64,
    /// `copy_adopt_ms / mmap_adopt_ms` — the rent the mmap fork pays.
    pub speedup: f64,
    /// Share of `file_bytes` the preferred path's epoch serves in place,
    /// without a copy (0 on the copy fallback).
    pub borrowed_share: f64,
    /// Median end-to-end publish → poll → adopt lag, milliseconds.
    pub publish_adopt_lag_ms: f64,
    /// Whether the preferred path actually mapped (false = the copy
    /// fallback ran twice and `speedup` is ≈1 by construction).
    pub mapped: bool,
}

/// Median of an unsorted sample set, in the samples' own unit.
fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("latency is finite"));
    samples[samples.len() / 2]
}

/// Bytes of `adopted`'s arrays that are views into the mapped file.
fn borrowed_bytes(adopted: &AdoptedSnapshot) -> u64 {
    let AdoptedSnapshot { dataset, graph, goldfinger, entries, .. } = adopted;
    let offsets = 8 * (dataset.num_users() + 1);
    let mut bytes = 0;
    if dataset.is_shared() {
        bytes += offsets + 4 * dataset.num_ratings();
    }
    if graph.is_shared() {
        bytes += offsets + 8 * graph.num_edges();
    }
    if let Some(gf) = goldfinger.as_ref().filter(|gf| gf.is_shared()) {
        bytes += 8 * gf.words().len();
    }
    if let Some(index) = entries.as_ref().filter(|index| index.is_shared()) {
        bytes += 8 * (index.seeds().len() + index.keys().len())
            + 4 * (index.offsets().len() + index.targets().len() + index.members().len());
    }
    bytes as u64
}

/// Runs the three measurements and returns the structured report.
pub fn bench(args: &HarnessArgs) -> SnapshotReport {
    // An armed `--faults` schedule covers every open below — the CI
    // chaos smoke arms `sites=snapshot.mmap` and injected map failures
    // must silently take the copy fallback, never fail the bench.
    let fault_guard = args.faults.map(|plan| {
        silence_injected_panics();
        Faults::global().arm(plan)
    });
    // Same dataset shape as the serve bench: the snapshot under test is
    // the one that engine would publish.
    let mut cfg = cnc_dataset::SyntheticConfig::small(args.seed);
    cfg.num_users = ((16_000.0 * args.scale) as usize).max(512);
    cfg.num_items = ((8_000.0 * args.scale) as usize).max(400);
    cfg.communities = 16;
    cfg.mean_profile = 25.0;
    cfg.min_profile = 8;
    let dataset = cfg.generate();

    let config = ServingConfig {
        c2: C2Config {
            k: 30,
            backend: SimilarityBackend::GoldFinger { bits: 1024, seed: args.seed ^ 0x5E12 },
            seed: args.seed,
            threads: args.threads,
            ..C2Config::default()
        },
        runtime: RuntimeConfig::with_workers(args.threads),
        beam: BeamSearchConfig { beam_width: 32, entry_points: 6, max_comparisons: 0 },
        rebuild_after: 0,
        ..ServingConfig::default()
    };
    let engine = ServingEngine::build(dataset, config);
    let num_users = engine.stats().num_users;

    // Unique per call, not just per process: the crate's tests run this
    // bench on parallel threads, and each run removes its directory.
    static RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let run = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let unique = format!("cnc-bench-snapshot-{}-{run}", std::process::id());
    let dir = std::env::temp_dir().join(unique);
    std::fs::create_dir_all(&dir).expect("create bench snapshot dir");
    let path = dir.join("epoch.snap");
    let file_bytes = engine.write_snapshot(&path).expect("write bench snapshot");

    // One throwaway load per path first so both measured loops run
    // page-cache-warm (the steady-state replica case).
    let warm = AdoptedSnapshot::load_copied(&path).expect("copy warm-up load");
    engine.adopt(warm);
    let probe = AdoptedSnapshot::open(&path).expect("mmap warm-up load");
    let mapped = probe.mapped;
    let borrowed_share = borrowed_bytes(&probe) as f64 / file_bytes as f64;
    engine.adopt(probe);

    let mut copy_ms = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        let adopted = AdoptedSnapshot::load_copied(&path).expect("copy load");
        engine.adopt(adopted);
        copy_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let mut mmap_ms = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        let adopted = AdoptedSnapshot::open(&path).expect("mmap load");
        engine.adopt(adopted);
        mmap_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    // Publish → adopt lag: builder publishes into the directory, a
    // replica (restored from the same snapshot, as in a real builder/
    // replica deployment) polls and hot-swaps.
    let publish_dir = dir.join("epochs");
    let replica = ServingEngine::from_snapshot(
        cnc_serve::Snapshot::load(&path).expect("load replica seed"),
        config,
    );
    let mut publisher = SnapshotPublisher::open(&publish_dir).expect("open publisher");
    let mut adopter = SnapshotAdopter::new(&publish_dir);
    let mut lag_ms = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        publisher.publish(&engine).expect("publish epoch");
        let seq = adopter.poll_into(&replica).expect("poll epoch");
        lag_ms.push(start.elapsed().as_secs_f64() * 1e3);
        assert!(seq.is_some(), "a fresh publish must be adoptable");
        publisher.prune(1).expect("prune epochs");
    }
    let _ = std::fs::remove_dir_all(&dir);
    if fault_guard.is_some() {
        let injected = Faults::global().injected(Site::SnapshotMmap);
        eprintln!("  snapshot faults: {injected} snapshot.mmap injections absorbed by fallback");
    }
    drop(fault_guard);

    let (copy_adopt_ms, mmap_adopt_ms) = (median(&mut copy_ms), median(&mut mmap_ms));
    SnapshotReport {
        num_users,
        file_bytes,
        copy_adopt_ms,
        mmap_adopt_ms,
        speedup: if mmap_adopt_ms > 0.0 { copy_adopt_ms / mmap_adopt_ms } else { 0.0 },
        borrowed_share,
        publish_adopt_lag_ms: median(&mut lag_ms),
        mapped,
    }
}

/// Read-modify-write merge into `BENCH_serve.json`: the `"snapshot"` key
/// is replaced, the serve bench's own keys survive. Best-effort, like
/// every bench recorder. (Skipped under `cfg(test)` so unit tests don't
/// clobber the checked-in baseline with debug-build numbers.)
#[cfg(not(test))]
fn record_snapshot_json(args: &HarnessArgs, report: &SnapshotReport) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let snapshot = Value::Object(vec![
        ("scale".into(), Value::Float(args.scale)),
        ("num_users".into(), Value::UInt(report.num_users as u64)),
        ("file_bytes".into(), Value::UInt(report.file_bytes)),
        ("copy_adopt_ms".into(), Value::Float(report.copy_adopt_ms)),
        ("mmap_adopt_ms".into(), Value::Float(report.mmap_adopt_ms)),
        ("speedup".into(), Value::Float(report.speedup)),
        ("borrowed_share".into(), Value::Float(report.borrowed_share)),
        ("publish_adopt_lag_ms".into(), Value::Float(report.publish_adopt_lag_ms)),
        ("mapped".into(), Value::Bool(report.mapped)),
    ]);
    let mut root = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .filter(|v| matches!(v, Value::Object(_)))
        .unwrap_or_else(|| Value::Object(Vec::new()));
    if let Value::Object(fields) = &mut root {
        fields.retain(|(key, _)| key != "snapshot");
        fields.push(("snapshot".into(), snapshot));
    }
    if let Err(err) = std::fs::write(path, json::to_string(&root)) {
        eprintln!("cannot record snapshot bench to {path} ({err}); continuing");
    }
}

/// Runs the bench, merges the `"snapshot"` key into `BENCH_serve.json`
/// and renders the markdown section for `repro_all`.
pub fn run(args: &HarnessArgs) -> String {
    let report = bench(args);
    #[cfg(not(test))]
    record_snapshot_json(args, &report);
    eprintln!(
        "  snapshot: {} users, {} KiB on disk; adopt copy {:.2} ms vs mmap {:.3} ms \
         ({:.1}×, mapped: {}, {:.1} % of the file served in place); \
         publish→adopt lag {:.2} ms",
        report.num_users,
        report.file_bytes / 1024,
        report.copy_adopt_ms,
        report.mmap_adopt_ms,
        report.speedup,
        report.mapped,
        report.borrowed_share * 100.0,
        report.publish_adopt_lag_ms,
    );
    format!(
        "## Snapshot adoption — zero-copy mmap vs cold copy-load\n\n\
         *{} users, {} KiB snapshot (format v2, 64-byte-aligned sections); \
         medians over {REPS} page-cache-warm repetitions; mmap adoption verifies \
         section checksums but copies no per-user data*\n\n\
         | metric | value |\n|:---|---:|\n\
         | cold copy-load + adopt (p50) | {:.3} ms |\n\
         | mmap + verify + adopt (p50) | {:.3} ms |\n\
         | adoption speed-up | {:.1}× |\n\
         | zero-copy path taken | {} |\n\
         | file bytes served in place | {:.1} % |\n\
         | publish → poll → adopt lag (p50) | {:.3} ms |\n\n\
         Recorded to `BENCH_serve.json` under the `snapshot` key.\n\n",
        report.num_users,
        report.file_bytes / 1024,
        report.copy_adopt_ms,
        report.mmap_adopt_ms,
        report.speedup,
        if report.mapped { "yes" } else { "no (copy fallback)" },
        report.borrowed_share * 100.0,
        report.publish_adopt_lag_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_measures_both_paths_and_the_lag() {
        let args = HarnessArgs { scale: 0.02, ..HarnessArgs::default() };
        let report = bench(&args);
        assert!(report.num_users >= 512);
        assert!(report.file_bytes > 0);
        assert!(report.copy_adopt_ms > 0.0);
        assert!(report.mmap_adopt_ms > 0.0);
        assert!(report.publish_adopt_lag_ms > 0.0);
        assert!(report.speedup > 0.0);
        assert_eq!(report.mapped, AdoptedSnapshot::zero_copy_supported());
        // Zero copies is a count: everything but the table and the
        // builder's membership section is served out of the map.
        if report.mapped {
            assert!((0.9..1.0).contains(&report.borrowed_share), "{}", report.borrowed_share);
        } else {
            assert_eq!(report.borrowed_share, 0.0);
        }
    }

    #[test]
    fn markdown_section_names_every_figure() {
        let args = HarnessArgs { scale: 0.02, ..HarnessArgs::default() };
        let report = run(&args);
        for needle in [
            "cold copy-load + adopt",
            "mmap + verify + adopt",
            "adoption speed-up",
            "zero-copy path taken",
            "file bytes served in place",
            "publish → poll → adopt lag",
            "BENCH_serve.json",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in {report}");
        }
    }
}
