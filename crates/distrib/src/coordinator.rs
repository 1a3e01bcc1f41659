//! The coordinator: executes the §VIII deployment plan across worker
//! *processes* and merges their shuffle streams into one graph.
//!
//! Topology per build: N spawned workers (LPT cluster assignment from
//! [`plan_deployment_for`]), R reducer threads in the coordinator (one
//! per reduce shard, merging with the bounded-heap `NeighborList::merge`
//! — order-independent, so any interleaving of worker streams yields
//! the bit-identical graph), one reader thread per worker draining its
//! stream, and the main thread owning every writer (commands never race).
//!
//! Recovery is PR 8's machinery at process granularity:
//!
//! * a dead worker is a caught worker panic — its undone clusters
//!   requeue on idle survivors, the in-flight cluster pays one attempt,
//!   and [`MAX_CLUSTER_ATTEMPTS`] deaths on the same cluster escalate
//!   to a typed [`DistribError::ClusterExhausted`];
//! * with **no** survivors the coordinator itself solves the remainder
//!   inline — the orchestrator recovery lane;
//! * transport sends retry injected IO under capped backoff
//!   ([`crate::transport::send_frame`]);
//! * the result is published like the serving writer: the graph is
//!   assembled only after *every* cluster completes, and
//!   [`DistribPublisher`] keeps the last good result live across
//!   failed rebuilds — a partial merge is unrepresentable.

use crate::error::DistribError;
use crate::transport::{self, send_frame, spawn_worker, SocketDir, Transport, WorkerLink};
use crate::wire::{
    self, decode_cluster_done, decode_stats, partition_of, read_frame, Assignment, ReducePartition,
    WorkerWireStats, FRAME_BYE, FRAME_CLUSTER_DONE, FRAME_FINISH, FRAME_IDLE, FRAME_SPANS,
    FRAME_STATS,
};
use cnc_baselines::local::solve_cluster_partial;
use cnc_core::distributed::plan_deployment_for;
use cnc_core::{BuildPlan, C2Config, ClusterAndConquer};
use cnc_dataset::{Dataset, UserId};
use cnc_faults::{backoff, catch_injected, Faults, Site};
use cnc_graph::{KnnGraph, NeighborList};
use cnc_similarity::SimilarityData;
use cnc_telemetry::{wire as telemetry_wire, Telemetry};
use std::cell::OnceCell;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::process::Child;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How many worker processes may die on one cluster before the build
/// fails typed — the process-level analogue of the engine's
/// per-cluster solve-attempt bound.
pub const MAX_CLUSTER_ATTEMPTS: u32 = 3;

/// Retry bound for the coordinator's inline recovery solves; outlasts
/// any injectable failure budget (span ≤ 12).
const INLINE_SOLVE_ATTEMPTS: u32 = 16;

/// Chaos hook: kill worker `worker` (SIGKILL) after it reports
/// `after_clusters` completed clusters — the kill-a-worker-mid-build
/// test drives recovery through exactly the path a crashed machine
/// would.
#[derive(Clone, Copy, Debug)]
pub struct KillSpec {
    /// Which worker to kill.
    pub worker: usize,
    /// After how many of its `ClusterDone` frames.
    pub after_clusters: usize,
}

/// Configuration of a distributed build.
#[derive(Clone, Debug)]
pub struct DistribConfig {
    /// Worker processes to spawn (≥ 1; 1 is the degenerate
    /// single-worker case, still a real child process).
    pub processes: usize,
    /// Reduce shards merged in the coordinator; 0 = one per process.
    pub reduce_shards: usize,
    /// Byte transport between coordinator and workers.
    pub transport: Transport,
    /// Ship `SpanRecord`s back and merge them into the coordinator's
    /// collector (one combined Chrome trace).
    pub telemetry: bool,
    /// Fault plan armed in every worker process
    /// ([`cnc_faults::FaultPlan::spec`] form).
    pub faults_spec: Option<String>,
    /// Worker binary; `None` re-execs the current executable (which
    /// must call [`crate::maybe_run_worker`] first thing in `main`).
    pub worker_program: Option<PathBuf>,
    /// Chaos hook (tests): kill a worker mid-build.
    pub kill: Option<KillSpec>,
}

impl Default for DistribConfig {
    fn default() -> Self {
        DistribConfig {
            processes: 2,
            reduce_shards: 0,
            transport: Transport::default(),
            telemetry: false,
            faults_spec: None,
            worker_program: None,
            kill: None,
        }
    }
}

impl DistribConfig {
    /// The actual reduce shard count (0 resolves to the process count).
    pub fn effective_reduce_shards(&self) -> usize {
        if self.reduce_shards == 0 {
            self.processes.max(1)
        } else {
            self.reduce_shards
        }
    }
}

/// Per-process outcome in the report.
#[derive(Clone, Debug, PartialEq)]
pub enum ProcExit {
    /// Sent `FRAME_BYE` and exited cleanly.
    Clean,
    /// Died mid-build (killed, injected exit, stream error) — carries
    /// the reader's diagnosis.
    Dead(String),
}

/// One worker process's contribution.
#[derive(Clone, Debug)]
pub struct ProcStats {
    /// Worker ordinal.
    pub worker: usize,
    /// OS process id.
    pub pid: u32,
    /// End-of-job counters (absent for dead workers).
    pub wire: Option<WorkerWireStats>,
    /// How the process ended.
    pub exit: ProcExit,
}

/// What a distributed build measured.
#[derive(Clone, Debug)]
pub struct DistribReport {
    /// Worker processes spawned.
    pub processes: usize,
    /// Reduce shards merged in the coordinator.
    pub reduce_shards: usize,
    /// Transport used.
    pub transport: Transport,
    /// Users in the dataset.
    pub num_users: usize,
    /// Clusters in the build plan.
    pub clusters_total: usize,
    /// Worker processes that died mid-build.
    pub worker_deaths: usize,
    /// Cluster assignments requeued off dead workers.
    pub requeued_clusters: u64,
    /// Clusters the coordinator solved inline (no survivors left).
    pub recovered_inline: u64,
    /// Transport send retries, coordinator + all workers.
    pub transport_retries: u64,
    /// Faults injected across worker processes (their own registries).
    pub worker_injected: u64,
    /// Remote span records merged into the coordinator's collector.
    pub remote_spans: usize,
    /// Similarity comparisons across all fresh solves.
    pub comparisons: u64,
    /// Per-process outcomes.
    pub workers: Vec<ProcStats>,
    /// End-to-end wall time.
    pub wall: Duration,
}

/// A completed distributed build.
#[derive(Debug)]
pub struct DistribResult {
    /// The KNN graph — bit-identical to the single-process build.
    pub graph: KnnGraph,
    /// Build measurements.
    pub report: DistribReport,
}

/// Events the per-worker reader threads feed the main loop. Records
/// themselves bypass this channel (readers route them straight to the
/// reducers); per-sender FIFO ordering guarantees every `Done` of a
/// worker is processed before its `Dead`.
enum Event {
    Done { worker: usize, cluster: u32, comparisons: u64 },
    Idle { worker: usize },
    Stats { worker: usize, stats: WorkerWireStats },
    Spans { count: usize },
    Bye { worker: usize },
    Dead { worker: usize, detail: String },
}

/// Kills and reaps every child still running when dropped, so an early
/// error return never leaks worker processes.
struct Reaper {
    children: Vec<Arc<Mutex<Child>>>,
}

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in &self.children {
            let mut child = child.lock().unwrap_or_else(|p| p.into_inner());
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The distributed runtime: spawn, execute, merge.
pub struct DistribRuntime {
    config: DistribConfig,
}

impl DistribRuntime {
    /// A runtime with the given configuration.
    pub fn new(config: DistribConfig) -> DistribRuntime {
        DistribRuntime { config }
    }

    /// This runtime's configuration.
    pub fn config(&self) -> &DistribConfig {
        &self.config
    }

    /// Mutable configuration access — a publisher reconfigures between
    /// rebuilds (fleet size, transport, chaos) without losing last-good.
    pub fn config_mut(&mut self) -> &mut DistribConfig {
        &mut self.config
    }

    /// Runs one distributed build. On success the graph is complete (a
    /// partial merge is never returned); on error the caller's last
    /// good result — see [`DistribPublisher`] — stays live.
    pub fn execute(&self, dataset: &Dataset, c2: &C2Config) -> Result<DistribResult, DistribError> {
        let wall_start = Instant::now();
        let telemetry = Telemetry::global();
        let mut span = telemetry.span("distrib.build");
        let coord_retries_base = transport::transport_retries();

        let processes = self.config.processes.max(1);
        let reduce_shards = self.config.effective_reduce_shards();
        let transport_kind = self.config.transport;
        let n = dataset.num_users();
        let k = c2.k;

        let plan = BuildPlan::assign(c2, dataset);
        let total = plan.clusters().len();
        span.attr("clusters", total as u64);
        span.attr("processes", processes as u64);

        let empty_report = |wall| DistribReport {
            processes,
            reduce_shards,
            transport: transport_kind,
            num_users: n,
            clusters_total: total,
            worker_deaths: 0,
            requeued_clusters: 0,
            recovered_inline: 0,
            transport_retries: 0,
            worker_injected: 0,
            remote_spans: 0,
            comparisons: 0,
            workers: Vec::new(),
            wall,
        };
        if total == 0 {
            return Ok(DistribResult {
                graph: KnnGraph::new(n, k),
                report: empty_report(wall_start.elapsed()),
            });
        }

        let sizes: Vec<usize> = plan.clusters().iter().map(|c| c.len()).collect();
        let deploy = plan_deployment_for(&sizes, processes, k, c2.rho);
        let partition = Arc::new(ReducePartition::new(n, reduce_shards));

        // --- Reducer threads: one per shard, merging record batches ---
        let mut shard_txs: Vec<Sender<Vec<(UserId, NeighborList)>>> =
            Vec::with_capacity(reduce_shards);
        let mut reducer_handles = Vec::with_capacity(reduce_shards);
        for r in 0..reduce_shards {
            let (tx, rx) = mpsc::channel::<Vec<(UserId, NeighborList)>>();
            shard_txs.push(tx);
            let part = Arc::clone(&partition);
            reducer_handles.push(std::thread::spawn(move || reduce_loop(r, rx, part, k)));
        }

        // --- Spawn workers, one reader thread each ---
        let program = match &self.config.worker_program {
            Some(p) => p.clone(),
            None => std::env::current_exe()
                .map_err(|source| DistribError::Spawn { worker: 0, source })?,
        };
        let sock_dir = match transport_kind {
            Transport::Socket => Some(
                SocketDir::create().map_err(|source| DistribError::Spawn { worker: 0, source })?,
            ),
            Transport::Pipe => None,
        };
        let (event_tx, event_rx) = mpsc::channel::<Event>();
        let mut writers = Vec::with_capacity(processes);
        let mut pids = Vec::with_capacity(processes);
        let mut children = Vec::with_capacity(processes);
        let mut reader_handles = Vec::with_capacity(processes);
        for w in 0..processes {
            let WorkerLink { worker, pid, child, writer, reader } =
                spawn_worker(&program, transport_kind, sock_dir.as_ref().map(SocketDir::path), w)?;
            debug_assert_eq!(worker, w);
            writers.push(writer);
            pids.push(pid);
            children.push(Arc::clone(&child));
            let events = event_tx.clone();
            let txs = shard_txs.clone();
            reader_handles.push(std::thread::spawn(move || {
                reader_loop(w, reader, child, k, reduce_shards, txs, events)
            }));
        }
        drop(event_tx);
        let reaper = Reaper { children: children.clone() };

        // --- Coordinator-side build state ---
        let mut send_seq: u64 = 0;
        let mut coord_key = move || {
            send_seq += 1;
            send_seq
        };
        let mut done = vec![false; total];
        let mut attempts = vec![0u32; total];
        let mut done_count = 0usize;
        let mut pool: VecDeque<Assignment> = VecDeque::new();
        let mut holding: Vec<VecDeque<Assignment>> = vec![VecDeque::new(); processes];
        let mut alive = vec![true; processes];
        let mut idle = vec![false; processes];
        let mut finish_sent = vec![false; processes];
        let mut terminated = vec![false; processes];
        let mut wire_stats: Vec<Option<WorkerWireStats>> = vec![None; processes];
        let mut exits: Vec<ProcExit> = vec![ProcExit::Clean; processes];
        let mut done_by = vec![0usize; processes];
        let mut kill_pending = self.config.kill;
        let mut worker_deaths = 0usize;
        let mut requeued_clusters = 0u64;
        let mut recovered_inline = 0u64;
        let mut remote_spans = 0usize;
        let mut comparisons_total = 0u64;
        let inline_sim: OnceCell<SimilarityData<'_>> = OnceCell::new();

        // Job preambles. The assignment is tracked in `holding` *before*
        // the send: if the send fails the worker is (or is about to be)
        // dead, and the Dead event requeues everything it held.
        for w in 0..processes {
            let assignments: Vec<Assignment> = deploy.assignments[w]
                .iter()
                .map(|&c| Assignment { cluster: c as u32, attempt: 0 })
                .collect();
            holding[w].extend(assignments.iter().copied());
            let payload = wire::encode_job(
                w as u32,
                processes as u32,
                reduce_shards as u32,
                self.config.telemetry,
                self.config.faults_spec.as_deref(),
                c2,
                dataset,
                &assignments,
            );
            let _ = send_frame(&mut writers[w], wire::FRAME_JOB, &payload, coord_key());
        }

        // --- Main event loop ---
        loop {
            if done_count == total {
                for w in 0..processes {
                    if alive[w] && idle[w] && !finish_sent[w] {
                        let _ = send_frame(&mut writers[w], FRAME_FINISH, &[], coord_key());
                        finish_sent[w] = true;
                    }
                }
            } else if !pool.is_empty() {
                let idle_now: Vec<usize> =
                    (0..processes).filter(|&w| alive[w] && idle[w] && !finish_sent[w]).collect();
                if !idle_now.is_empty() {
                    let share = pool.len().div_ceil(idle_now.len());
                    for w in idle_now {
                        if pool.is_empty() {
                            break;
                        }
                        let take = share.min(pool.len());
                        let batch: Vec<Assignment> = pool.drain(..take).collect();
                        let payload = wire::encode_add_clusters(&batch);
                        match send_frame(
                            &mut writers[w],
                            wire::FRAME_ADD_CLUSTERS,
                            &payload,
                            coord_key(),
                        ) {
                            Ok(()) => {
                                idle[w] = false;
                                holding[w].extend(batch);
                            }
                            Err(_) => {
                                // The worker is dying; its reader will say so.
                                for a in batch.into_iter().rev() {
                                    pool.push_front(a);
                                }
                            }
                        }
                    }
                } else if alive.iter().all(|a| !a) {
                    // --- Inline recovery lane: no survivors left ---
                    let sim = inline_sim.get_or_init(|| {
                        SimilarityData::build_parallel(c2.backend, dataset, c2.threads)
                    });
                    while let Some(Assignment { cluster, .. }) = pool.pop_front() {
                        let c = cluster as usize;
                        if done[c] {
                            continue;
                        }
                        let comparisons = solve_inline(&plan, sim, c2, c, &shard_txs)?;
                        done[c] = true;
                        done_count += 1;
                        comparisons_total += comparisons;
                        recovered_inline += 1;
                    }
                    continue;
                }
            }

            if terminated.iter().all(|&t| t) {
                if done_count == total {
                    break;
                }
                if pool.is_empty() {
                    return Err(DistribError::Protocol {
                        detail: "all workers gone with clusters unaccounted".into(),
                    });
                }
                continue; // back to the inline recovery branch
            }

            let event = event_rx.recv().map_err(|_| DistribError::Protocol {
                detail: "event channel closed with workers outstanding".into(),
            })?;
            match event {
                Event::Done { worker, cluster, comparisons } => {
                    if let Some(pos) = holding[worker].iter().position(|a| a.cluster == cluster) {
                        holding[worker].remove(pos);
                    }
                    let c = cluster as usize;
                    if c < total && !done[c] {
                        done[c] = true;
                        done_count += 1;
                        comparisons_total += comparisons;
                    }
                    done_by[worker] += 1;
                    if let Some(kill) = kill_pending {
                        if kill.worker == worker && done_by[worker] >= kill.after_clusters {
                            kill_pending = None;
                            let mut child =
                                children[worker].lock().unwrap_or_else(|p| p.into_inner());
                            let _ = child.kill();
                        }
                    }
                }
                Event::Idle { worker } => idle[worker] = true,
                Event::Stats { worker, stats } => wire_stats[worker] = Some(stats),
                Event::Spans { count } => remote_spans += count,
                Event::Bye { worker } => {
                    alive[worker] = false;
                    idle[worker] = false;
                    terminated[worker] = true;
                }
                Event::Dead { worker, detail } => {
                    if terminated[worker] {
                        continue;
                    }
                    alive[worker] = false;
                    idle[worker] = false;
                    terminated[worker] = true;
                    worker_deaths += 1;
                    exits[worker] = ProcExit::Dead(detail);
                    // The in-flight cluster (FIFO ⇒ the front) pays the
                    // attempt; everything else requeues at its old count.
                    if let Some(first) = holding[worker].pop_front() {
                        let c = first.cluster as usize;
                        attempts[c] += 1;
                        if attempts[c] >= MAX_CLUSTER_ATTEMPTS {
                            return Err(DistribError::ClusterExhausted {
                                cluster: c,
                                attempts: attempts[c],
                            });
                        }
                        requeued_clusters += 1;
                        pool.push_front(Assignment {
                            cluster: first.cluster,
                            attempt: attempts[c],
                        });
                    }
                    while let Some(rest) = holding[worker].pop_front() {
                        requeued_clusters += 1;
                        pool.push_back(Assignment {
                            cluster: rest.cluster,
                            attempt: attempts[rest.cluster as usize],
                        });
                    }
                }
            }
        }

        // --- Assembly: the reducers' heaps, frozen worst first like every
        // other executor's rows (`KnnGraph::into_shared`) ---
        for handle in reader_handles {
            let _ = handle.join();
        }
        drop(shard_txs);
        let mut graph = KnnGraph::new(n, k);
        for (r, handle) in reducer_handles.into_iter().enumerate() {
            let lists = handle.join().map_err(|_| DistribError::Protocol {
                detail: format!("reduce shard {r} panicked"),
            })?;
            for (&user, list) in partition.owned[r].iter().zip(lists) {
                *graph.neighbors_mut(user) = list;
            }
        }
        let graph = graph.into_shared();
        drop(reaper); // children all exited; reap them

        let workers: Vec<ProcStats> = (0..processes)
            .map(|w| ProcStats {
                worker: w,
                pid: pids[w],
                wire: wire_stats[w],
                exit: exits[w].clone(),
            })
            .collect();
        let transport_retries = (transport::transport_retries() - coord_retries_base)
            + workers
                .iter()
                .filter_map(|p| p.wire.as_ref())
                .map(|s| s.transport_retries)
                .sum::<u64>();
        let worker_injected =
            workers.iter().filter_map(|p| p.wire.as_ref()).map(|s| s.injected).sum::<u64>();

        span.attr("worker_deaths", worker_deaths as u64);
        span.attr("requeued_clusters", requeued_clusters);
        span.attr("recovered_inline", recovered_inline);
        span.attr("comparisons", comparisons_total);

        Ok(DistribResult {
            graph,
            report: DistribReport {
                worker_deaths,
                requeued_clusters,
                recovered_inline,
                transport_retries,
                worker_injected,
                remote_spans,
                comparisons: comparisons_total,
                workers,
                wall: wall_start.elapsed(),
                ..empty_report(Duration::ZERO)
            },
        })
    }
}

/// Solves one cluster in the coordinator (recovery lane) and routes its
/// lists to the reducers. Retries injected solve panics under backoff.
fn solve_inline(
    plan: &BuildPlan,
    sim: &SimilarityData<'_>,
    c2: &C2Config,
    cluster: usize,
    shard_txs: &[Sender<Vec<(UserId, NeighborList)>>],
) -> Result<u64, DistribError> {
    let faults = Faults::global();
    let users = &plan.clusters()[cluster];
    let job_seed = ClusterAndConquer::job_seed(c2, cluster);
    let threshold = c2.brute_force_threshold();
    let mut attempt = 0;
    let (lists, comparisons) = loop {
        let outcome = catch_injected(AssertUnwindSafe(|| {
            faults.panic_on(Site::SolveCluster, cluster as u64);
            solve_cluster_partial(users, sim, c2.k, threshold, c2.rho, c2.delta, job_seed)
        }));
        match outcome {
            Ok(solved) => break solved,
            Err(_) => {
                attempt += 1;
                if attempt >= INLINE_SOLVE_ATTEMPTS {
                    return Err(DistribError::ClusterExhausted { cluster, attempts: attempt });
                }
                backoff(attempt, 20, 2_000);
            }
        }
    };
    let reduce_shards = shard_txs.len();
    let mut batches: Vec<Vec<(UserId, NeighborList)>> = vec![Vec::new(); reduce_shards];
    for (&user, list) in users.iter().zip(lists) {
        if !list.is_empty() {
            batches[partition_of(user, reduce_shards)].push((user, list));
        }
    }
    for (shard, batch) in batches.into_iter().enumerate() {
        if !batch.is_empty() {
            let _ = shard_txs[shard].send(batch);
        }
    }
    Telemetry::global().record_complete(
        "distrib.recover.inline",
        0,
        0,
        vec![("cluster", cluster as u64), ("comparisons", comparisons)],
    );
    Ok(comparisons)
}

/// One reduce shard: merges record batches into the shard's partition
/// with the bounded-heap merge (route- and order-independent).
fn reduce_loop(
    r: usize,
    rx: Receiver<Vec<(UserId, NeighborList)>>,
    partition: Arc<ReducePartition>,
    k: usize,
) -> Vec<NeighborList> {
    let mut lists: Vec<NeighborList> = vec![NeighborList::new(k); partition.owned[r].len()];
    while let Ok(batch) = rx.recv() {
        for (user, partial) in batch {
            lists[partition.local_index[user as usize] as usize].merge(&partial);
        }
    }
    lists
}

/// Drains one worker's stream: records go straight to the reducers,
/// everything else becomes an [`Event`]. Returns when the worker says
/// goodbye or the stream dies — reaping the child either way, so exit
/// status is part of the death diagnosis.
fn reader_loop(
    worker: usize,
    mut reader: Box<dyn std::io::Read + Send>,
    child: Arc<Mutex<Child>>,
    k: usize,
    reduce_shards: usize,
    shard_txs: Vec<Sender<Vec<(UserId, NeighborList)>>>,
    events: Sender<Event>,
) {
    let telemetry = Telemetry::global();
    let reap = |child: &Arc<Mutex<Child>>| -> String {
        let mut child = child.lock().unwrap_or_else(|p| p.into_inner());
        match child.wait() {
            Ok(status) => status.to_string(),
            Err(e) => format!("wait failed: {e}"),
        }
    };
    loop {
        match read_frame(&mut reader) {
            Ok(Some(frame)) => match frame.kind {
                FRAME_CLUSTER_DONE => match decode_cluster_done(&frame.payload, k) {
                    Ok(done) if done.groups.iter().all(|(s, _)| (*s as usize) < reduce_shards) => {
                        for (shard, records) in done.groups {
                            let _ = shard_txs[shard as usize].send(records);
                        }
                        let _ = events.send(Event::Done {
                            worker,
                            cluster: done.cluster,
                            comparisons: done.comparisons,
                        });
                    }
                    Ok(_) => {
                        let status = reap(&child);
                        let _ = events.send(Event::Dead {
                            worker,
                            detail: format!("shard out of range ({status})"),
                        });
                        return;
                    }
                    Err(e) => {
                        let status = reap(&child);
                        let _ = events.send(Event::Dead {
                            worker,
                            detail: format!("bad cluster frame: {e} ({status})"),
                        });
                        return;
                    }
                },
                FRAME_IDLE => {
                    let _ = events.send(Event::Idle { worker });
                }
                FRAME_SPANS => match telemetry_wire::read_records(&mut frame.payload.as_slice()) {
                    Ok(records) => {
                        let count =
                            telemetry_wire::merge_remote(telemetry, records, worker as u64 + 1);
                        let _ = events.send(Event::Spans { count });
                    }
                    Err(e) => {
                        let status = reap(&child);
                        let _ = events.send(Event::Dead {
                            worker,
                            detail: format!("bad spans frame: {e} ({status})"),
                        });
                        return;
                    }
                },
                FRAME_STATS => match decode_stats(&frame.payload) {
                    Ok(stats) => {
                        let _ = events.send(Event::Stats { worker, stats });
                    }
                    Err(e) => {
                        let status = reap(&child);
                        let _ = events.send(Event::Dead {
                            worker,
                            detail: format!("bad stats frame: {e} ({status})"),
                        });
                        return;
                    }
                },
                FRAME_BYE => {
                    reap(&child);
                    let _ = events.send(Event::Bye { worker });
                    return;
                }
                other => {
                    let status = reap(&child);
                    let _ = events.send(Event::Dead {
                        worker,
                        detail: format!("unexpected frame kind {other} ({status})"),
                    });
                    return;
                }
            },
            Ok(None) => {
                let status = reap(&child);
                let _ =
                    events.send(Event::Dead { worker, detail: format!("stream EOF ({status})") });
                return;
            }
            Err(e) => {
                let status = reap(&child);
                let _ = events
                    .send(Event::Dead { worker, detail: format!("stream error: {e} ({status})") });
                return;
            }
        }
    }
}

/// Publishes distributed builds like the serving writer: the last good
/// result stays live across failed rebuilds, and readers never observe
/// a partial merge (one is unrepresentable — [`DistribRuntime::execute`]
/// assembles only complete builds).
pub struct DistribPublisher {
    runtime: DistribRuntime,
    last_good: Mutex<Option<Arc<DistribResult>>>,
}

impl DistribPublisher {
    /// A publisher over the given runtime.
    pub fn new(runtime: DistribRuntime) -> DistribPublisher {
        DistribPublisher { runtime, last_good: Mutex::new(None) }
    }

    /// The runtime.
    pub fn runtime(&self) -> &DistribRuntime {
        &self.runtime
    }

    /// Mutable runtime access (see [`DistribRuntime::config_mut`]).
    pub fn runtime_mut(&mut self) -> &mut DistribRuntime {
        &mut self.runtime
    }

    /// Rebuilds; on success the new result becomes current, on failure
    /// the previous result stays live and the error is returned.
    pub fn rebuild(
        &self,
        dataset: &Dataset,
        c2: &C2Config,
    ) -> Result<Arc<DistribResult>, DistribError> {
        let result = Arc::new(self.runtime.execute(dataset, c2)?);
        *self.last_good.lock().unwrap_or_else(|p| p.into_inner()) = Some(Arc::clone(&result));
        Ok(result)
    }

    /// The last successfully published result.
    pub fn current(&self) -> Option<Arc<DistribResult>> {
        self.last_good.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_shards_default_to_process_count() {
        let mut config = DistribConfig { processes: 4, ..DistribConfig::default() };
        assert_eq!(config.effective_reduce_shards(), 4);
        config.reduce_shards = 2;
        assert_eq!(config.effective_reduce_shards(), 2);
    }

    #[test]
    fn empty_dataset_builds_without_spawning() {
        let dataset = Dataset::from_profiles(Vec::new(), 0);
        let c2 = C2Config { k: 4, b: 8, t: 2, threads: 1, ..C2Config::default() };
        let runtime = DistribRuntime::new(DistribConfig::default());
        let result = runtime.execute(&dataset, &c2).unwrap();
        assert_eq!(result.graph.num_users(), 0);
        assert_eq!(result.report.clusters_total, 0);
        assert_eq!(result.report.worker_deaths, 0);
    }

    #[test]
    fn publisher_starts_empty() {
        let publisher = DistribPublisher::new(DistribRuntime::new(DistribConfig::default()));
        assert!(publisher.current().is_none());
    }
}
