//! §VIII executed: predicted vs. measured sharded scaling.
//!
//! Three sweeps over the same C² build:
//!
//! 1. **Map stage** — for `W ∈ {1, 2, 4, 8, 16}` on `cnc-runtime`'s
//!    sharded engine (no spill), the `DeploymentPlan`'s *predicted*
//!    figures (Algorithm 2 cost model) next to the engine's *measured*
//!    ones — the validation loop the simulation alone could not close.
//! 2. **Spill lane** — spill `{Off, Always}` at a fixed worker count: the
//!    same build merged in memory and through per-worker spill files.
//! 3. **Distributed processes** — `cnc-distrib` over re-exec'd worker
//!    processes, its partial lists routed to `R` reduce shards.
//!
//! Speed-ups here are `Σ busy / makespan` (the scheduling speed-up; on a
//! machine with fewer cores than shards the wall clock obviously cannot
//! follow it). `--workers` pins the first two sweeps to one point,
//! `--processes` and `--reduce-shards` the distributed one — CI's smoke
//! run uses `--workers 2 --reduce-shards 2 --processes 2` on a tiny
//! dataset.

use crate::args::HarnessArgs;
use cnc_core::C2Config;
use cnc_dataset::{Dataset, SyntheticConfig};
use cnc_distrib::{DistribConfig, DistribRuntime, Transport};
use cnc_runtime::{Runtime, RuntimeConfig, SpillMode};
use cnc_similarity::{SimilarityBackend, SimilarityData};
use serde::{json, Value};
use std::time::Instant;

/// Worker counts swept by the map-stage table.
pub const WORKER_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// The fixed map worker count of the spill table (unless `--workers`
/// pins one).
pub const SPILL_WORKERS: usize = 4;

/// Process counts swept by the distributed table (unless `--processes`
/// pins one; 1 always runs — it is the speed-up baseline).
pub const PROCESS_COUNTS: [usize; 3] = [1, 2, 4];

/// Reduce shards of the distributed sweep (unless `--reduce-shards`
/// pins one).
pub const DISTRIB_SHARDS: usize = 2;

/// Runs both sweeps and renders the markdown section.
pub fn run(args: &HarnessArgs) -> String {
    // The scaling sweep defaults telemetry *off* (wall-clock fidelity);
    // `--profile-out` or `--telemetry on` capture the per-build
    // map.worker span trees for trace inspection.
    cnc_telemetry::Telemetry::global().enable(args.telemetry_enabled(false));
    let mut cfg = SyntheticConfig::small(args.seed);
    cfg.num_users = (8000.0 * args.scale.max(0.05)) as usize;
    cfg.num_items = (4000.0 * args.scale.max(0.05)) as usize;
    cfg.communities = 16;
    cfg.mean_profile = 25.0;
    cfg.min_profile = 8;
    let dataset = cfg.generate();

    let c2 = C2Config {
        k: 10,
        b: 256,
        t: 4,
        max_cluster_size: 400,
        backend: SimilarityBackend::Raw,
        seed: args.seed,
        ..C2Config::default()
    };

    // One similarity build shared across every run of the runtime sweeps
    // (don't re-materialize the backend per execution).
    let sim = SimilarityData::build_parallel(c2.backend, &dataset, 0);

    // --- Map-stage sweep ------------------------------------------------
    let worker_counts: Vec<usize> =
        args.workers.map_or_else(|| WORKER_COUNTS.to_vec(), |w| vec![w]);
    let mut num_clusters = 0;
    let mut map_rows = String::new();
    for &workers in &worker_counts {
        let runtime = Runtime::new(RuntimeConfig::with_workers(workers));
        let result = runtime.execute_with(&dataset, &sim, &c2, Instant::now());
        let report = &result.report;
        report.check_invariants().expect("runtime report accounting violated");
        num_clusters = report.num_clusters;
        map_rows.push_str(&format!(
            "| {workers} | {:.2} | {:.2} | {:.3} | {:.3} | {} | {} | {:.1} ms |\n",
            report.plan.speedup(),
            report.measured_speedup(),
            report.plan.imbalance(),
            report.measured_imbalance(),
            report.stolen_clusters(),
            report.shuffle_entries,
            report.map_reduce_wall.as_secs_f64() * 1e3,
        ));
    }

    // --- Spill sweep: in-memory merge vs per-worker spill files ---------
    let spill_workers = args.workers.unwrap_or(SPILL_WORKERS);
    let mut spill_rows = String::new();
    for spill in [SpillMode::Off, SpillMode::Always] {
        let runtime = Runtime::new(RuntimeConfig { workers: spill_workers, spill });
        let result = runtime.execute_with(&dataset, &sim, &c2, Instant::now());
        let report = &result.report;
        report.check_invariants().expect("runtime report accounting violated");
        spill_rows.push_str(&format!(
            "| {spill:?} | {:.2} | {} | {} | {:.1} ms |\n",
            report.measured_speedup(),
            report.total_spill_entries(),
            report.total_spill_bytes(),
            report.map_reduce_wall.as_secs_f64() * 1e3,
        ));
    }

    // --- Distributed processes sweep ------------------------------------
    // Skipped under `cfg!(test)`: the coordinator re-execs the current
    // executable as its workers, and the libtest harness binary does not
    // route `--distrib-worker` through `maybe_run_worker`.
    let distrib_section =
        if cfg!(test) { String::new() } else { distrib_sweep(args, &dataset, &c2) };

    crate::write_profile(args);
    format!(
        "## Sharded runtime — predicted vs. measured scaling\n\n\
         *{} users, {num_clusters} clusters per run; LPT plan + work stealing; \
         speed-up = Σ busy / makespan*\n\n\
         | W | predicted speed-up | measured speed-up | predicted imbalance | \
         measured imbalance | stolen | shuffle entries | map+merge wall |\n\
         |---:|---:|---:|---:|---:|---:|---:|---:|\n{map_rows}\n\
         ### Spill lane ({spill_workers} map workers)\n\n\
         | spill | measured speed-up | spilled entries | spilled bytes | map+merge wall |\n\
         |:---|---:|---:|---:|---:|\n{spill_rows}\n{distrib_section}",
        dataset.num_users(),
    )
}

/// One cell of the distributed sweep.
struct DistribCell {
    transport: Transport,
    processes: usize,
    wall_ms: f64,
    speedup: f64,
    worker_deaths: usize,
    recovered: u64,
    identical: bool,
}

/// Runs the multi-process sweep (§VIII over real processes): for each
/// transport, walks the process ladder, pins bit-identity against the
/// single-process point, and records the measurements to
/// `BENCH_kernels.json` under the `"distrib"` key. An armed `--faults`
/// spec ships to the workers (the chaos smoke path: killed workers must
/// requeue and the graph must still match).
fn distrib_sweep(args: &HarnessArgs, dataset: &Dataset, c2: &C2Config) -> String {
    let shards = args.reduce_shards.unwrap_or(DISTRIB_SHARDS);
    let ladder: Vec<usize> = match args.processes {
        Some(1) => vec![1],
        Some(n) => vec![1, n],
        None => PROCESS_COUNTS.to_vec(),
    };
    // Workers solve single-threaded so the speed-up point isolates
    // process-level parallelism.
    let c2 = C2Config { threads: 1, ..*c2 };
    let faults_spec = args.faults.as_ref().map(|plan| plan.spec());

    let mut cells: Vec<DistribCell> = Vec::new();
    let mut rows = String::new();
    for transport in [Transport::Pipe, Transport::Socket] {
        let mut baseline: Option<(f64, cnc_graph::KnnGraph)> = None;
        for &processes in &ladder {
            let runtime = DistribRuntime::new(DistribConfig {
                processes,
                reduce_shards: shards,
                transport,
                faults_spec: faults_spec.clone(),
                ..DistribConfig::default()
            });
            let result = match runtime.execute(dataset, &c2) {
                Ok(result) => result,
                Err(err) => {
                    rows.push_str(&format!(
                        "| {transport} | {processes} | failed: {err} | | | | |\n"
                    ));
                    continue;
                }
            };
            let wall_ms = result.report.wall.as_secs_f64() * 1e3;
            let (speedup, identical) = match &baseline {
                None => {
                    baseline = Some((wall_ms, result.graph.clone()));
                    (1.0, true)
                }
                Some((base_ms, base_graph)) => {
                    let same = (0..base_graph.num_users() as u32).all(|u| {
                        base_graph.neighbors(u).sorted() == result.graph.neighbors(u).sorted()
                    });
                    (base_ms / wall_ms, same)
                }
            };
            let recovered = result.report.requeued_clusters + result.report.recovered_inline;
            rows.push_str(&format!(
                "| {transport} | {processes} | {shards} | {wall_ms:.1} ms | {speedup:.2} | {} | {} |\n",
                result.report.worker_deaths,
                if identical { "yes" } else { "**NO**" },
            ));
            cells.push(DistribCell {
                transport,
                processes,
                wall_ms,
                speedup,
                worker_deaths: result.report.worker_deaths,
                recovered,
                identical,
            });
        }
    }
    record_distrib_json(args, shards, &cells);

    let chaos = faults_spec.map_or(String::new(), |spec| format!(" Chaos spec: `{spec}`."));
    format!(
        "### Distributed processes (coordinator + re-exec'd workers, \
         {shards} reduce shards)\n\n\
         *Speed-up is wall vs the single-process point of the same transport; \
         `identical` pins the merged graph against it bit-for-bit. On a box \
         with fewer cores than P the sweep measures spawn + transport + merge \
         overhead, not hardware speed-up.{chaos}*\n\n\
         | transport | P | R | wall | speed-up | deaths | identical |\n\
         |:---|---:|---:|---:|---:|---:|:---|\n{rows}\n"
    )
}

/// Writes the sweep to `BENCH_kernels.json` as its one `"distrib"` key.
/// Best-effort: a bench run never fails on recording I/O.
fn record_distrib_json(args: &HarnessArgs, shards: usize, cells: &[DistribCell]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let cell_values: Vec<Value> = cells
        .iter()
        .map(|c| {
            Value::Object(vec![
                ("transport".into(), Value::Str(c.transport.to_string())),
                ("processes".into(), Value::UInt(c.processes as u64)),
                ("shards".into(), Value::UInt(shards as u64)),
                ("wall_ms".into(), Value::Float(c.wall_ms)),
                ("speedup".into(), Value::Float(c.speedup)),
                ("worker_deaths".into(), Value::UInt(c.worker_deaths as u64)),
                ("recovered_clusters".into(), Value::UInt(c.recovered)),
            ])
        })
        .collect();
    let best = cells.iter().map(|c| c.speedup).fold(0.0f64, f64::max);
    let distrib = Value::Object(vec![
        ("scale".into(), Value::Float(args.scale)),
        ("graph_identical".into(), Value::Bool(cells.iter().all(|c| c.identical))),
        ("worker_deaths".into(), Value::UInt(cells.iter().map(|c| c.worker_deaths as u64).sum())),
        ("recovered_clusters".into(), Value::UInt(cells.iter().map(|c| c.recovered).sum())),
        ("best_speedup".into(), Value::Float(best)),
        ("cells".into(), Value::Array(cell_values)),
    ]);
    let root = Value::Object(vec![("distrib".into(), distrib)]);
    if let Err(err) = std::fs::write(path, json::to_string(&root)) {
        eprintln!("cannot record distrib sweep to {path} ({err}); continuing");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_all_worker_counts() {
        let args = HarnessArgs { scale: 0.05, ..HarnessArgs::default() };
        let report = run(&args);
        for workers in WORKER_COUNTS {
            assert!(report.contains(&format!("| {workers} |")), "missing row for W={workers}");
        }
        for spill in ["Off", "Always"] {
            let row = format!("| {spill} |");
            assert!(report.contains(&row), "missing spill row {row}");
        }
    }

    #[test]
    fn pinned_workers_restrict_both_runtime_sweeps() {
        let args = HarnessArgs { scale: 0.05, workers: Some(2), ..HarnessArgs::default() };
        let report = run(&args);
        assert!(report.contains("| Off |"));
        assert!(report.contains("| Always |"));
        assert!(report.contains("(2 map workers)"));
        for absent in [16, 8, 4, 1] {
            assert!(
                !report.lines().any(|l| l.starts_with(&format!("| {absent} |"))),
                "W={absent} row must be absent when --workers pins the sweep"
            );
        }
    }
}
