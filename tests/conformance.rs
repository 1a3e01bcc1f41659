//! The conformance matrix: every executor × backend × fault schedule ×
//! delta against `ClusterAndConquer::build` at one thread on the cell's
//! post-delta dataset. Algorithm 3's merge is a bounded top-k under a
//! strict order, so each cell must give the oracle's rows **in stored
//! order**, its exact comparison count, and one recovery per injected
//! fault. Incremental rows seed their cache on the base dataset with their
//! own executor, under the cell's schedule, and check that build too.
//! Without the libtest harness: the distributed rows re-exec this binary
//! as their workers, which `maybe_run_worker` intercepts first in `main`.

use cluster_and_conquer::distrib::{DistribResult, ProcExit};
use cluster_and_conquer::prelude::*;
use cnc_core::{plan_deployment, C2Result, RebuildPath};
use cnc_faults::silence_injected_panics;
use cnc_faults::Site::{self, SolveCluster, SpillReplay, SpillWrite, TransportSend, WorkerExit};
use cnc_similarity::SimilarityBackend::{GoldFinger as Gf, Raw};
use cnc_telemetry::{span::thread_id, SpanRecord};
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

const BACKENDS: [(&str, SimilarityBackend); 3] =
    [("raw", Raw), ("gf1024", Gf { bits: 1024, seed: 29 }), ("gf192", Gf { bits: 192, seed: 29 })];
const FAULTS: [&[Site]; 5] =
    [&[], &[SolveCluster], &[SpillWrite, SpillReplay], &[WorkerExit], &[TransportSend]];
const DELTAS: [&str; 4] = ["none", "append", "edit", "empty"];

/// A distributed cell arms its workers only, but once they all die its
/// coordinator solves behind this process's `solve.cluster` gate: it
/// must not run while an in-process cell has that gate armed.
static INLINE_LANE: RwLock<()> = RwLock::new(());

#[derive(Clone, Copy, PartialEq)]
enum Exec {
    Core(usize),
    CoreIncremental,
    Map(usize, SpillMode),
    Patch(usize),
    Shared,
    Publish,
    Distrib(Transport, usize, usize),
}

impl Exec {
    fn name(self) -> String {
        match self {
            Exec::Core(threads) => format!("core_build_t{threads}"),
            Exec::CoreIncremental => "core_build_incremental".into(),
            Exec::Map(w, spill) => format!("runtime_execute_w{w}_spill_{spill:?}").to_lowercase(),
            Exec::Patch(w) => format!("runtime_execute_incremental_w{w}"),
            Exec::Shared => "runtime_execute_incremental_shared".into(),
            Exec::Publish => "serving_engine_publish".into(),
            Exec::Distrib(t, p, r) => format!("distrib_{t}_p{p}_r{r}"),
        }
    }

    /// Why a cell does not apply, or `None` when it runs.
    fn na(self, backend: SimilarityBackend, sites: &[Site], delta: usize) -> Option<&'static str> {
        let spill = sites.contains(&SpillWrite);
        Some(match self {
            Exec::Shared if backend == Raw => "shared fingerprints are a GoldFinger set",
            Exec::Core(_) | Exec::Map(..) | Exec::Distrib(..) if delta > 0 => "built from scratch",
            Exec::Publish if delta > 1 => "the serving writer only appends",
            _ if sites.is_empty() => return None,
            Exec::Core(_) | Exec::CoreIncremental => "the pipeline solves behind no fault gate",
            Exec::Distrib(..) if spill => "the distributed build never spills",
            Exec::Distrib(..) => return None,
            _ if matches!(sites, [WorkerExit | TransportSend]) => "no worker process",
            Exec::Map(_, SpillMode::Off) if spill => "spill is off",
            _ if spill && !matches!(self, Exec::Map(..)) => "the patch stage never spills",
            _ => return None,
        })
    }
}

/// One applicable cell of row `row`, named `backend/fault/delta`.
struct Cell {
    row: usize,
    exec: Exec,
    b: usize,
    sites: &'static [Site],
    delta: usize,
    name: String,
}

fn main() {
    cluster_and_conquer::distrib::maybe_run_worker();
    let start = std::time::Instant::now();
    silence_injected_panics();
    Telemetry::global().enable(true);
    let mut rows = vec![Exec::Core(1), Exec::Core(2), Exec::CoreIncremental];
    for workers in [1, 3] {
        rows.extend([SpillMode::Off, SpillMode::Always].map(|spill| Exec::Map(workers, spill)));
    }
    rows.extend([Exec::Patch(1), Exec::Patch(3), Exec::Shared, Exec::Publish]);
    for t in [Transport::Pipe, Transport::Socket] {
        rows.extend([1, 2, 4].into_iter().flat_map(|p| [1, 2].map(|r| Exec::Distrib(t, p, r))));
    }

    let (mut cells, mut na) = (Vec::new(), vec![BTreeMap::<_, Vec<_>>::new(); rows.len()]);
    for (row, &exec) in rows.iter().enumerate() {
        for (b, &(backend_name, backend)) in BACKENDS.iter().enumerate() {
            for (sites, delta) in FAULTS.iter().flat_map(|&s| (0..4).map(move |d| (s, d))) {
                let fault: Vec<_> = sites.iter().map(|s| s.name()).collect();
                let fault = if sites.is_empty() { "none".into() } else { fault.join("+") };
                let name = format!("{backend_name}/{fault}/{}", DELTAS[delta]);
                match exec.na(backend, sites, delta) {
                    Some(why) => na[row].entry(why).or_default().push(name),
                    None => cells.push(Cell { row, exec, b, sites, delta, name }),
                }
            }
        }
    }
    // The in-process cells run on this thread, one at a time, since they
    // arm the process-wide fault registry; two more threads run the
    // distributed cells beside them, and this one joins them after.
    let (fx, next, failed) = (Fixture::new(), AtomicUsize::new(0), Mutex::new(BTreeSet::new()));
    let split = cells.iter().position(|c| matches!(c.exec, Exec::Distrib(..)));
    let (local, remote) = cells.split_at(split.unwrap_or(cells.len()));
    let run = |cell: &Cell| {
        if catch_unwind(AssertUnwindSafe(|| fx.run(cell))).is_err() {
            failed.lock().unwrap().insert(cell.row);
        }
    };
    let drain = || std::iter::from_fn(|| remote.get(next.fetch_add(1, Relaxed))).for_each(run);
    std::thread::scope(|scope| {
        scope.spawn(drain);
        scope.spawn(drain);
        local.iter().for_each(run);
        drain();
    });

    let failed = failed.into_inner().unwrap();
    for (row, exec) in rows.iter().enumerate() {
        let verdict = if failed.contains(&row) { "FAILED" } else { "ok" };
        let ran: Vec<_> = cells.iter().filter(|c| c.row == row).map(|c| c.name.as_str()).collect();
        println!("test {} ... {verdict}\n    {} cells: {}", exec.name(), ran.len(), ran.join(", "));
        na[row].iter().for_each(|(why, cells)| println!("    n/a ({why}): {}", cells.join(", ")));
    }
    let (verdict, secs) = (["ok", "FAILED"][usize::from(!failed.is_empty())], start.elapsed());
    println!("\n{} cells over {} rows", cells.len(), rows.len());
    let summary = format!("{} passed; {} failed", rows.len() - failed.len(), failed.len());
    println!("test result: {verdict}. {summary}; finished in {:.2}s", secs.as_secs_f64());
    std::process::exit(i32::from(!failed.is_empty()));
}

/// The base dataset and its three deltas, with each one's oracle per
/// backend, and the first patch of every (backend, delta), whose path and
/// cost every other incremental row must repeat.
struct Fixture {
    data: [Dataset; 4],
    oracles: Vec<[C2Result; 4]>,
    patches: Mutex<HashMap<(usize, usize), Patch>>,
}
type Patch = (RebuildPath, u64, usize);

fn config(backend: SimilarityBackend) -> C2Config {
    let (k, b, t, max_cluster_size, seed, threads) = (8, 64, 3, 40, 17, 1);
    C2Config { k, b, t, max_cluster_size, seed, threads, backend, ..C2Config::default() }
}

impl Fixture {
    /// 300 users; `append` adds 8 (donor profiles plus a drift item),
    /// `edit` gives user 17 the first newcomer's profile, and `empty`
    /// empties user 33's, who keeps the id, and drops the last user's.
    fn new() -> Fixture {
        let mut cfg = SyntheticConfig::small(5151);
        (cfg.num_users, cfg.num_items, cfg.communities) = (300, 380, 9);
        (cfg.mean_profile, cfg.min_profile) = (12.0, 5);
        let base = cfg.generate();
        let mut profiles: Vec<Vec<u32>> = base.iter().map(|(_, p)| p.to_vec()).collect();
        let (mut appended, mut edited) = (profiles.clone(), profiles.clone());
        let newcomer = |i: u32| [&profiles[(i * 37 + 5) as usize][..], &[370 + i]].concat();
        appended.extend((0..8).map(newcomer));
        (edited[17], profiles[33]) = (appended[300].clone(), Vec::new());
        profiles.pop();
        let [appended, edited, emptied] =
            [appended, edited, profiles].map(|p| Dataset::from_profiles(p, 380));
        let data = [base, appended, edited, emptied];
        let build = |b| data.each_ref().map(|d| ClusterAndConquer::new(config(b)).build(d));
        let oracles: Vec<_> = BACKENDS.map(|(_, backend)| build(backend)).into();
        assert!(oracles.iter().all(|o| o[3].graph.neighbors(33).is_empty()), "an empty profile");
        Fixture { data, oracles, patches: Mutex::default() }
    }

    fn run(&self, c: &Cell) {
        let (c2, cell) = (config(BACKENDS[c.b].1), format!("{} {}", c.exec.name(), c.name));
        let (data, oracle, sites) = (&self.data[c.delta], &self.oracles[c.b][c.delta], c.sites);
        let alone = sites == [SolveCluster] && !matches!(c.exec, Exec::Distrib(..));
        let _alone = alone.then(|| INLINE_LANE.write().unwrap_or_else(PoisonError::into_inner));
        let _lane = (sites == [WorkerExit])
            .then(|| INLINE_LANE.read().unwrap_or_else(PoisonError::into_inner));
        let graph = match c.exec {
            Exec::Core(threads) => {
                let got = ClusterAndConquer::new(C2Config { threads, ..c2 }).build(data);
                let stats = |s: &cnc_core::C2Stats| (s.comparisons, s.cluster_sizes_desc.clone());
                assert_eq!(stats(&got.stats), stats(&oracle.stats), "{cell}");
                got.graph
            }
            Exec::Map(workers, spill) => {
                let runtime = Runtime::new(RuntimeConfig { workers, spill });
                let (got, [requeued, retried]) = armed(sites, || runtime.execute(data, &c2));
                let (o, r) = (&oracle.stats, &got.report);
                let clustering = ClusterAndConquer::new(c2).cluster_step(data);
                let traffic = plan_deployment(&clustering, workers, c2.k, c2.rho).merge_traffic;
                let spilled = if spill == SpillMode::Always { traffic } else { 0 };
                let route = (r.spilled_entries, r.rerouted_records, r.spill_dir.is_some());
                assert_eq!(route, (spilled, 0, spilled > 0), "{cell}: the spill route");
                let counts =
                    (r.comparisons, r.num_clusters, r.shuffle_entries, r.spilled_bytes > 0);
                assert_eq!(counts, (o.comparisons, o.num_clusters, traffic, spilled > 0), "{cell}");
                assert!(sites.is_empty() || requeued + retried > 0, "{cell}: nothing injected");
                let keys = ["shuffle_entries", "requeued_clusters", "spill_retries"];
                assert_eq!(span_attrs("build.map_reduce", &keys), [traffic, requeued, retried]);
                got.graph
            }
            Exec::Distrib(transport, processes, reduce_shards) => {
                let dead = sites == [WorkerExit];
                let plan = FaultPlan::new(42, 1.0).with_span(2 - u32::from(dead)).only(sites);
                let mut config =
                    DistribConfig { processes, reduce_shards, transport, ..Default::default() };
                config.faults_spec = (!sites.is_empty()).then(|| plan.spec());
                let built = DistribRuntime::new(config).execute(data, &c2);
                let DistribResult { graph, report: r } = built.expect(&cell);
                // Under `worker.exit` every worker dies at its first cluster
                // and the coordinator solves every cluster inline; the other
                // sites are retried in place, once per injection.
                let inline = if dead { r.clusters_total as u64 } else { 0 };
                let exits = r.workers.iter().all(|w| w.exit == ProcExit::Clean);
                let got = (r.worker_deaths, r.requeued_clusters, r.recovered_inline, exits);
                let deaths = if dead { processes } else { 0 };
                assert_eq!(got, (deaths, inline, inline, !dead), "{cell}: recovery");
                let shape = (r.processes, r.reduce_shards, r.comparisons);
                assert_eq!(shape, (processes, reduce_shards, oracle.stats.comparisons), "{cell}");
                let injected = |site| if sites == [site] { r.worker_injected } else { 0 };
                let solves = r.workers.iter().filter_map(|w| w.wire).map(|s| s.solve_retries);
                let retries = (solves.sum(), r.transport_retries, r.worker_injected > 0);
                let want =
                    (injected(SolveCluster), injected(TransportSend), !dead && !sites.is_empty());
                assert_eq!(retries, want, "{cell}: one retry per injected fault");
                graph
            }
            _ => return self.incremental(c, &c2, &cell),
        };
        assert_rows(&graph, &oracle.graph, &cell);
    }

    /// A cold build of the base dataset, then a patch of the cell's: each
    /// the oracle's graph and cache, and the patch the same path at the
    /// same cost as the first incremental row that patched this (backend,
    /// delta). Rows behind the fault gate also read their `build` span:
    /// the comparisons, and one requeue per injected solve panic.
    fn incremental(&self, c: &Cell, c2: &C2Config, cell: &str) {
        let (engine, runtime) = (OnceCell::new(), RuntimeConfig::with_workers(2));
        let config = ServingConfig { c2: *c2, runtime, rebuild_after: 0, ..Default::default() };
        let step = |data: &Dataset, prev: &ClusterCache| {
            let runtime = |workers| Runtime::new(RuntimeConfig::with_workers(workers));
            let built = match (c.exec, c2.backend) {
                (Exec::CoreIncremental, _) => {
                    let built = ClusterAndConquer::new(*c2).build_incremental(data, prev);
                    assert_eq!(built.result.stats.comparisons, built.rebuild.comparisons);
                    return (built.result.graph, Some(built.cache), built.rebuild);
                }
                (Exec::Publish, _) => {
                    let published = engine.get().map(|engine: &ServingEngine| {
                        for (user, profile) in data.iter().skip(engine.current_epoch().num_users())
                        {
                            engine.insert(profile.to_vec(), user.into());
                        }
                        engine.publish()
                    });
                    let engine = engine.get_or_init(|| ServingEngine::build(data.clone(), config));
                    let epoch = engine.current_epoch();
                    let want = (published.map_or(1, |_| 2), data);
                    assert_eq!((epoch.epoch(), epoch.dataset()), want, "{cell}: the epoch");
                    return (epoch.graph().clone(), None, epoch.rebuild_stats());
                }
                (Exec::Patch(w), _) => runtime(w).execute_incremental(data, c2, prev, &[]),
                (_, Gf { bits, seed }) => {
                    let gf = Arc::new(GoldFinger::build(data, bits, seed));
                    runtime(2).execute_incremental_shared(data, c2, gf, prev)
                }
                (_, Raw) => unreachable!("n/a: shared fingerprints"),
            };
            (built.graph, Some(built.cache), built.rebuild)
        };
        let mut cache = ClusterCache::new(c2);
        for (d, cold) in [(0, true), (c.delta, false)] {
            let ((graph, next, rebuild), [requeued, _]) =
                armed(c.sites, || step(&self.data[d], &cache));
            let oracle = &self.oracles[c.b][d];
            assert_eq!(rebuild.clusters_total, oracle.stats.num_clusters, "{cell}");
            if cold {
                let cost = (rebuild.path, rebuild.comparisons, rebuild.reuse_ratio);
                assert_eq!(cost, (RebuildPath::Cold, oracle.stats.comparisons, 0.0), "{cell}");
            } else {
                let record = (rebuild.path, rebuild.comparisons, rebuild.clusters_resolved);
                let first = *self.patches.lock().unwrap().entry((c.b, d)).or_insert(record);
                assert_eq!(first, record, "{cell}: the patch differs between executors");
                assert_eq!(rebuild.path, RebuildPath::Patched, "{cell}");
                assert_eq!(d == 0, rebuild.comparisons == 0, "{cell}: a patch's cost");
                let recomputed = rebuild.rows_recomputed > 0;
                assert!(d < 2 || recomputed, "{cell}: someone listed the edited user");
                let cheaper = rebuild.comparisons < oracle.stats.comparisons;
                assert!(cheaper && rebuild.reuse_ratio > 0.5, "{cell}: nothing reused");
            }
            if c.exec != Exec::CoreIncremental {
                let attrs = span_attrs("build", &["comparisons", "requeued_clusters"]);
                assert_eq!(attrs, [rebuild.comparisons, requeued], "{cell}: the build span");
                let gated = cold || rebuild.rows_patched > 0;
                assert!(c.sites.is_empty() || !gated || requeued > 0, "{cell}: nothing injected");
            }
            assert_rows(&graph, &oracle.graph, cell);
            if let Some(next) = next {
                let cached = (next.total_comparisons(), next.len());
                assert_eq!(cached, (oracle.stats.comparisons, oracle.stats.num_clusters), "{cell}");
                next.check_accounting(&rebuild).unwrap_or_else(|e| panic!("{cell}: {e}"));
                cache = next;
            }
        }
    }
}

/// Runs `build` under the cell's schedule (every key of its sites fails
/// once or twice) with the span log cleared; returns what it injected at
/// `solve.cluster` and at the spill sites.
fn armed<T>(sites: &[Site], build: impl FnOnce() -> T) -> (T, [u64; 2]) {
    let faults = Faults::global();
    let plan = FaultPlan::new(42, 1.0).with_span(2).only(sites);
    let guard = (!sites.is_empty()).then(|| (Telemetry::global().reset(), faults.arm(plan)));
    let out = build();
    let count = |site| guard.as_ref().map_or(0, |_| faults.injected(site));
    (out, [count(SolveCluster), count(SpillWrite) + count(SpillReplay)])
}

/// The named attributes of the last `name` span this thread recorded.
fn span_attrs(name: &str, keys: &[&str]) -> Vec<u64> {
    let records = Telemetry::global().span_records();
    let mine = |r: &&SpanRecord| r.name == name && r.thread == thread_id();
    let span = records.iter().rev().find(mine).expect("the span was recorded");
    let attr = |key| span.attrs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
    keys.iter().map(|&key| attr(key).unwrap_or_else(|| panic!("{name} has no {key}"))).collect()
}

/// Every row equals the oracle's in stored order, similarities to the bit.
fn assert_rows(got: &KnnGraph, oracle: &KnnGraph, cell: &str) {
    assert_eq!(got.num_users(), oracle.num_users(), "{cell}");
    let row = |g: &KnnGraph, u| g.neighbors(u).iter().map(|n| (n.user, n.sim.to_bits())).collect();
    for u in 0..oracle.num_users() as u32 {
        let (got, want): (Vec<_>, Vec<_>) = (row(got, u), row(oracle, u));
        assert_eq!(got, want, "{cell}: user {u}'s row differs from the oracle's");
    }
}
