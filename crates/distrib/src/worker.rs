//! The worker side: a re-exec'd binary that joins a build.
//!
//! A worker receives the job preamble (config + dataset + initial
//! clusters), *recomputes* the build plan locally — `BuildPlan::assign`
//! is deterministic in `(config, dataset)`, so only cluster **indices**
//! ever cross the wire and the coordinator's clusters match the worker's
//! by construction — then solves its queue FIFO, routing each cluster's
//! partial lists to reduce shards with [`partition_of`] and shipping
//! them as one atomic `FRAME_CLUSTER_DONE`.
//!
//! Recovery mirrors the in-process engine's map workers: each solve
//! waits behind the `solve.cluster` gate ([`Faults::gate`]) for up to
//! [`SOLVE_ATTEMPTS`] in-process tries; the cross-process `worker.exit`
//! site is consulted *before* the solve with the coordinator-tracked
//! attempt number ([`Faults::inject_at`]) and a drawn fault is an
//! immediate `process::exit` — no goodbye frame, the coordinator sees
//! EOF.

use crate::error::DistribError;
use crate::transport::{self, send_frame, EXIT_INJECTED};
use crate::wire::{
    self, decode_add_clusters, decode_job, partition_of, read_frame, Assignment, WorkerWireStats,
    FRAME_BYE, FRAME_CLUSTER_DONE, FRAME_FINISH, FRAME_IDLE, FRAME_SPANS, FRAME_STATS,
};
use cnc_baselines::local::solve_cluster_partial;
use cnc_core::{BuildPlan, ClusterAndConquer};
use cnc_faults::{FaultPlan, Faults, Site, SOLVE_ATTEMPTS};
use cnc_graph::NeighborList;
use cnc_similarity::SimilarityData;
use cnc_telemetry::Telemetry;
use std::collections::VecDeque;
use std::io::Write;
use std::time::Instant;

/// Checks the environment/arguments for worker mode and, if present,
/// runs the worker protocol and **never returns**. Binaries that a
/// distributed coordinator may re-exec (the `perf` benchmark, the distrib
/// test runner) call this first thing in `main`, before touching stdout.
pub fn maybe_run_worker() {
    let flagged = std::env::args().any(|a| a == "--distrib-worker")
        || std::env::var_os(transport::ENV_WORKER).is_some();
    if flagged {
        run_worker();
    }
}

/// Runs the worker protocol over the environment-resolved connection
/// and exits the process.
pub fn run_worker() -> ! {
    let code = match worker_loop() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("cnc-distrib worker failed: {e}");
            1
        }
    };
    std::process::exit(code)
}

fn protocol(detail: impl Into<String>) -> DistribError {
    DistribError::Protocol { detail: detail.into() }
}

fn worker_loop() -> Result<(), DistribError> {
    let (mut reader, mut writer) = transport::worker_connection()?;

    let frame = read_frame(&mut reader)?.ok_or_else(|| protocol("EOF before job frame"))?;
    if frame.kind != wire::FRAME_JOB {
        return Err(protocol(format!("expected job frame, got kind {}", frame.kind)));
    }
    let job = decode_job(&frame.payload)?;
    if let Some(spec) = &job.faults_spec {
        let plan = FaultPlan::parse(spec).map_err(protocol)?;
        // Keep the plan armed for the process lifetime.
        std::mem::forget(Faults::global().arm(plan));
    }
    let telemetry = Telemetry::global();
    if job.telemetry {
        telemetry.enable(true);
    }

    let c2 = job.config;
    let dataset = job.dataset;
    let plan = BuildPlan::assign(&c2, &dataset);
    let sim = SimilarityData::build_parallel(c2.backend, &dataset, c2.threads);
    let reduce_shards = job.reduce_shards as usize;
    let threshold = c2.brute_force_threshold();

    // Frame ordinals key the send-side fault schedule, salted by worker
    // so schedules draw independently across processes.
    let mut send_seq: u64 = (job.worker as u64 + 1) << 40;
    let faults = Faults::global();
    let mut queue: VecDeque<Assignment> = job.assignments.into();
    let mut stats = WorkerWireStats::default();
    let job_start = Instant::now();

    loop {
        let Some(Assignment { cluster, attempt }) = queue.pop_front() else {
            send_seq += 1;
            stats.transport_retries +=
                u64::from(send_frame(&mut writer, FRAME_IDLE, &[], send_seq)?);
            let frame = read_frame(&mut reader)?.ok_or_else(|| protocol("EOF awaiting command"))?;
            match frame.kind {
                wire::FRAME_ADD_CLUSTERS => queue.extend(decode_add_clusters(&frame.payload)?),
                FRAME_FINISH => break,
                other => return Err(protocol(format!("unexpected command kind {other}"))),
            }
            continue;
        };

        // The cross-process death site: the coordinator owns the attempt
        // counter, so a re-exec'd successor skips the drawn budget.
        if faults.inject_at(Site::WorkerExit, cluster as u64, attempt).is_some() {
            std::process::exit(EXIT_INJECTED);
        }

        let users = &plan.clusters()[cluster as usize];
        let job_seed = ClusterAndConquer::job_seed(&c2, cluster as usize);

        let solve_start = Instant::now();
        // Out of in-process budget: die and let the coordinator requeue
        // (process = worker).
        let gate = faults.gate(Site::SolveCluster, cluster.into(), SOLVE_ATTEMPTS);
        let retries = gate.map_err(|e| {
            protocol(format!("cluster {cluster} exhausted {} solve attempts", e.attempts))
        })?;
        stats.solve_retries += u64::from(retries);
        let (lists, comparisons) =
            solve_cluster_partial(users, &sim, c2.k, threshold, c2.rho, c2.delta, job_seed);
        let busy = solve_start.elapsed();

        // Route per reduce shard; empty lists are dropped at the source.
        let mut groups: Vec<Vec<(u32, NeighborList)>> = vec![Vec::new(); reduce_shards];
        for (&user, list) in users.iter().zip(lists) {
            if !list.is_empty() {
                groups[partition_of(user, reduce_shards)].push((user, list));
            }
        }
        let payload = wire::encode_cluster_done(cluster, comparisons, &groups)?;
        send_seq += 1;
        stats.transport_retries +=
            u64::from(send_frame(&mut writer, FRAME_CLUSTER_DONE, &payload, send_seq)?);

        stats.clusters += 1;
        stats.comparisons += comparisons;
        stats.busy_ns += busy.as_nanos() as u64;
        telemetry.record_complete(
            "distrib.solve.cluster",
            telemetry.stamp().saturating_sub(busy.as_nanos() as u64),
            busy.as_nanos() as u64,
            vec![("cluster", cluster as u64), ("comparisons", comparisons)],
        );
    }

    // Finish: ship the timeline, the counters, and a clean goodbye.
    if job.telemetry {
        telemetry.record_complete(
            "distrib.worker.process",
            0,
            job_start.elapsed().as_nanos() as u64,
            vec![("worker", job.worker as u64), ("clusters", stats.clusters)],
        );
        let records = telemetry.span_records();
        let payload = cnc_telemetry::wire::encode_records(&records);
        send_seq += 1;
        stats.transport_retries +=
            u64::from(send_frame(&mut writer, FRAME_SPANS, &payload, send_seq)?);
    }
    stats.injected = faults.injected_total();
    send_seq += 1;
    send_frame(&mut writer, FRAME_STATS, &wire::encode_stats(&stats), send_seq)?;
    send_seq += 1;
    send_frame(&mut writer, FRAME_BYE, &[], send_seq)?;
    writer.flush().map_err(DistribError::from)?;
    drop(reader);
    Ok(())
}
