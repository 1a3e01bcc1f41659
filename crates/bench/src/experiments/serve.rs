//! Online-serving benchmark: the first recorded point of the repo's
//! serving-throughput trajectory (`BENCH_serve.json`).
//!
//! Drives `N` client threads of mixed traffic — 15 queries to 1 streaming
//! insert — against one shared [`ServingEngine`] built by the sharded C²
//! runtime on the paper's 1024-bit GoldFinger backend. Inserts are
//! absorbed by the writer's dynamic index, and every `rebuild_after`
//! inserts the engine rebuilds and atomically publishes a fresh epoch, so
//! the run exercises queries, placements *and* epoch swaps under load.
//! Recorded figures: aggregate QPS, per-operation p50/p99 latency, and
//! the number of epoch swaps the traffic triggered.
//!
//! Latency percentiles come from the engine's own `cnc-telemetry`
//! histograms (`cnc_query_latency_ns`, `cnc_insert_latency_ns`) — bounded
//! memory regardless of run length — instead of the per-client latency
//! vectors earlier revisions accumulated. The log-linear buckets quantize
//! each sample by at most one part in 32 (one sub-bucket); the tests below
//! pin old-vs-new agreement to within one bucket.

use crate::args::HarnessArgs;
use cnc_core::{BuildPlan, C2Config};
use cnc_eval::groundtruth::{epoch_key, GroundTruthCache, GroundTruthConfig};
use cnc_faults::{silence_injected_panics, Faults, Site};
use cnc_query::{BatchQuery, BeamSearchConfig};
use cnc_runtime::RuntimeConfig;
use cnc_serve::{ServingConfig, ServingEngine, SloConfig};
use cnc_similarity::kernel::pair_count;
use cnc_similarity::SimilarityBackend;
use cnc_telemetry::Telemetry;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::sync::Mutex;
use std::time::Instant;

/// Queries per insert in the mixed workload (news-recommender-ish:
/// reads dominate, but freshness traffic is constant).
const QUERIES_PER_INSERT: usize = 15;

/// Neighbours per query, everywhere in this bench (traffic, recall).
const QUERY_K: usize = 10;

/// Per-query comparison caps swept for the recall-vs-budget curve
/// (0 = uncapped full beam).
const RECALL_BUDGETS: [usize; 4] = [128, 256, 512, 0];

/// The robustness point of a `--faults` run: serving figures under the
/// armed schedule next to a fault-free baseline phase on the same engine,
/// plus the recovery accounting the injections triggered.
#[derive(Clone, Debug)]
pub struct Robustness {
    /// The armed schedule, in `--faults` spec form.
    pub spec: String,
    /// Ops/s of the fault-free traffic phase.
    pub baseline_qps: f64,
    /// Query p99 of the fault-free traffic phase, microseconds.
    pub baseline_query_p99_us: f64,
    /// Ops/s of the traffic phase run under the armed schedule.
    pub faulted_qps: f64,
    /// Query p99 under the armed schedule, microseconds.
    pub faulted_query_p99_us: f64,
    /// Faults the registry injected during the faulted phase.
    pub injected: u64,
    /// Spill/replay retries the injections forced (`cnc_fault_retries_total`).
    pub retries: u64,
    /// Clusters returned to the queue after an injected solver panic.
    pub requeued_clusters: u64,
    /// Epoch rebuilds that failed and were absorbed (old epoch stayed live).
    pub rebuild_failures: u64,
    /// Snapshot files condemned and renamed aside during the run.
    pub quarantined_snapshots: u64,
}

/// The full bench result (rendered to markdown and JSON).
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Client threads driving traffic.
    pub clients: usize,
    /// Users served by the first epoch.
    pub num_users_start: usize,
    /// Users served by the last published epoch.
    pub num_users_end: usize,
    /// Initial build wall-clock, milliseconds.
    pub build_ms: f64,
    /// Total operations performed (queries + inserts).
    pub ops: usize,
    /// Queries answered.
    pub queries: usize,
    /// Inserts absorbed.
    pub inserts: usize,
    /// Epochs published under load.
    pub epoch_swaps: u64,
    /// Aggregate operations per second over the traffic phase.
    pub qps: f64,
    /// Query latency percentiles, microseconds.
    pub query_p50_us: f64,
    /// 99th-percentile query latency, microseconds.
    pub query_p99_us: f64,
    /// Median insert latency, microseconds (epoch-rebuild inserts
    /// included — that spike is the cost the p99 shows).
    pub insert_p50_us: f64,
    /// 99th-percentile insert latency, microseconds.
    pub insert_p99_us: f64,
    /// Mean cluster reuse ratio across the epoch rebuilds under load
    /// (0 when nothing was published).
    pub reuse_ratio_mean: f64,
    /// Reuse ratio of the last published epoch.
    pub reuse_ratio_last: f64,
    /// Similarities the last epoch rebuild computed over those a
    /// from-scratch build of the same plan computes — a same-run ratio of
    /// counts, which CI gates (a clean-cluster ratio alone says nothing
    /// about the work redone inside the dirty ones).
    pub rebuild_comparisons_share: f64,
    /// Median epoch-rebuild wall-clock, milliseconds.
    pub rebuild_ms_p50: f64,
    /// 99th-percentile epoch-rebuild wall-clock, milliseconds.
    pub rebuild_ms_p99: f64,
    /// Queries admitted by the budget during traffic (0 when admission
    /// is disabled — unmetered queries are not counted).
    pub admitted: u64,
    /// Queries shed with a typed rejection during traffic.
    pub shed: u64,
    /// shed / (admitted + shed), 0 when admission is disabled.
    pub shed_rate: f64,
    /// Admission budget the run was configured with (0 = unlimited).
    pub budget_per_sec: u64,
    /// p99 SLO the adaptive-beam controller targeted (0 = off).
    pub slo_target_us: u64,
    /// The controller's beam scale at the end of the run, percent.
    pub beam_scale_pct: u32,
    /// Mean recall@k of the served answers on the final epoch, against
    /// sampled exact ground truth.
    pub recall_at_k: f64,
    /// k the recall was measured at.
    pub recall_k: usize,
    /// Sampled ground-truth queries.
    pub recall_sample: usize,
    /// Recall@k under swept per-query comparison budgets
    /// `(max_comparisons, recall)`; 0 = uncapped.
    pub recall_by_budget: Vec<(usize, f64)>,
    /// Fault-injection robustness point (`None` unless `--faults` armed).
    pub robustness: Option<Robustness>,
}

/// Percentile over an ascending `f64` series, in the series' own unit
/// (one index-selection rule for latencies and rebuild times alike).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Converts sorted nanosecond samples to ascending microseconds (kept as
/// the exact-percentile oracle the histogram path is tested against).
#[cfg(test)]
fn sorted_ns_to_us(sorted_ns: &[u64]) -> Vec<f64> {
    sorted_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
}

/// Serializes bench runs within one process: the latency histograms live
/// in the global registry, so two concurrent benches (parallel unit
/// tests) would pollute each other's quantiles without this.
static BENCH_LOCK: Mutex<()> = Mutex::new(());

/// Runs the bench and returns the structured report.
pub fn bench(args: &HarnessArgs) -> ServeReport {
    let _guard = BENCH_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let telemetry = Telemetry::global();
    // The serve bench defaults telemetry *on*: its own latency figures
    // come from the registry. `--telemetry off` runs the overhead A/B
    // (throughput only; latency percentiles read 0).
    let telemetry_on = args.telemetry_enabled(true);
    telemetry.enable(telemetry_on);
    let query_hist = telemetry.histogram("cnc_query_latency_ns", &[]);
    let insert_hist = telemetry.histogram("cnc_insert_latency_ns", &[]);
    query_hist.reset();
    insert_hist.reset();
    let mut cfg = cnc_dataset::SyntheticConfig::small(args.seed);
    cfg.num_users = ((16_000.0 * args.scale) as usize).max(512);
    cfg.num_items = ((8_000.0 * args.scale) as usize).max(400);
    cfg.communities = 16;
    cfg.mean_profile = 25.0;
    cfg.min_profile = 8;
    let dataset = cfg.generate();
    let num_users = dataset.num_users();
    let num_items = dataset.num_items();

    let clients = args.clients.unwrap_or(4);
    // Debug builds (unit tests) only check plumbing; release runs need
    // enough operations for stable percentiles and several epoch swaps.
    let ops_per_client =
        if cfg!(debug_assertions) { 120 } else { ((40_000.0 * args.scale) as usize).max(1_000) };
    let total_inserts = clients * ops_per_client / (QUERIES_PER_INSERT + 1);
    let rebuild_after = (total_inserts / 3).max(8);

    let config = ServingConfig {
        c2: C2Config {
            // The graph is built wider than the query k (paper-default 30
            // edges, top-10 answers): extra edges cost build time but buy
            // navigability — beam search reaches the true top-10 instead
            // of stalling inside cluster-local neighbourhoods (measured
            // recall@10 on the CI smoke scale: 0.65 at k=10, 0.85 at
            // k=20, 0.98 at k=30).
            k: 30,
            backend: SimilarityBackend::GoldFinger { bits: 1024, seed: args.seed ^ 0x5E12 },
            seed: args.seed,
            threads: args.threads,
            ..C2Config::default()
        },
        runtime: RuntimeConfig::with_workers(args.threads),
        beam: BeamSearchConfig { beam_width: 32, entry_points: 6, max_comparisons: 0 },
        rebuild_after,
        slo: SloConfig {
            budget_per_sec: args.budget.unwrap_or(0),
            target_p99_us: args.slo_us.unwrap_or(0),
            ..SloConfig::default()
        },
    };

    let build_start = Instant::now();
    let engine = ServingEngine::build(dataset.clone(), config);
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;

    // Traffic phase: every client mixes 15 queries per insert, profiles
    // drawn from the base dataset with a random drift item (fresh users
    // resemble existing ones, as in the paper's workloads). Per-operation
    // latency is recorded inside the engine (telemetry histograms), so the
    // clients carry no measurement state of their own. A `--faults` run
    // drives the same mix twice — phase 0 fault-free, phase 1 under the
    // armed schedule — so the robustness point compares like with like.
    let run_traffic = |phase: u64| -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|client| {
                    let engine = &engine;
                    let dataset = &dataset;
                    scope.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(
                            args.seed
                                .wrapping_add(client as u64 * 0x9E37_79B9)
                                .wrapping_add(phase.wrapping_mul(0xA5A5_A5A5)),
                        );
                        let mut session = engine.session();
                        for op in 0..ops_per_client {
                            let donor = rng.random_range(0..num_users as u32);
                            let mut profile = dataset.profile(donor).to_vec();
                            profile.push(rng.random_range(0..num_items as u32));
                            let seed =
                                ((phase as usize * clients + client) * ops_per_client + op) as u64;
                            if op % (QUERIES_PER_INSERT + 1) == QUERIES_PER_INSERT {
                                engine.insert(profile, seed);
                            } else {
                                // The SLO-governed path: admission-checked when a
                                // budget is configured (shed queries return a typed
                                // rejection and are simply dropped by this
                                // open-loop client), plain query otherwise.
                                let _ =
                                    engine.try_query_with(&mut session, &profile, QUERY_K, seed);
                            }
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("client thread panicked");
            }
        });
        start.elapsed().as_secs_f64()
    };

    let phase_ops = clients * ops_per_client;
    let (traffic_s, robustness) = match args.faults {
        None => (run_traffic(0), None),
        Some(plan) => {
            // Injected solver panics must not spray the default panic hook's
            // backtraces over the bench output; genuine panics still print.
            silence_injected_panics();
            let registry = Faults::global();
            let baseline_s = run_traffic(0);
            let baseline_qps = phase_ops as f64 / baseline_s;
            let baseline_query_p99_us = query_hist.quantile(0.99) as f64 / 1e3;
            // Reset so the main report's percentiles describe the faulted
            // phase alone, not a blend of both phases.
            query_hist.reset();
            insert_hist.reset();
            let retries_before: u64 = Site::ALL
                .iter()
                .map(|s| {
                    telemetry.counter("cnc_fault_retries_total", &[("site", s.name())]).value()
                })
                .sum();
            let requeued_before = telemetry.counter("cnc_requeued_clusters_total", &[]).value();
            let quarantined_before =
                telemetry.counter("cnc_quarantined_snapshots_total", &[]).value();
            let rebuild_failures_before = engine.rebuild_failures();
            let guard = registry.arm(plan);
            let faulted_s = run_traffic(1);
            let injected = registry.injected_total();
            drop(guard);
            let retries_after: u64 = Site::ALL
                .iter()
                .map(|s| {
                    telemetry.counter("cnc_fault_retries_total", &[("site", s.name())]).value()
                })
                .sum();
            let robustness = Robustness {
                spec: plan.spec(),
                baseline_qps,
                baseline_query_p99_us,
                faulted_qps: phase_ops as f64 / faulted_s,
                faulted_query_p99_us: query_hist.quantile(0.99) as f64 / 1e3,
                injected,
                retries: retries_after - retries_before,
                requeued_clusters: telemetry.counter("cnc_requeued_clusters_total", &[]).value()
                    - requeued_before,
                rebuild_failures: engine.rebuild_failures() - rebuild_failures_before,
                quarantined_snapshots: telemetry
                    .counter("cnc_quarantined_snapshots_total", &[])
                    .value()
                    - quarantined_before,
            };
            (baseline_s + faulted_s, Some(robustness))
        }
    };

    let stats = engine.stats();
    if telemetry_on && args.faults.is_none() {
        // The engine timed exactly one histogram sample per operation;
        // drift here means an instrumentation path was skipped. (A faulted
        // run resets the histograms between its two phases, so the counts
        // intentionally cover only the second.)
        assert_eq!(query_hist.count(), stats.queries, "query latency accounting off");
        assert_eq!(insert_hist.count(), stats.inserts, "insert latency accounting off");
    }

    // Incremental-rebuild trajectory: one RebuildStats per epoch swap.
    let history = engine.rebuild_history();
    let mut rebuild_ms: Vec<f64> = history.iter().map(|r| r.rebuild_ms).collect();
    rebuild_ms.sort_unstable_by(|a, b| a.partial_cmp(b).expect("rebuild_ms is finite"));
    let reuse_ratio_mean = if history.is_empty() {
        0.0
    } else {
        history.iter().map(|r| r.reuse_ratio).sum::<f64>() / history.len() as f64
    };
    let reuse_ratio_last = history.last().map_or(0.0, |r| r.reuse_ratio);

    // ── Recall phase ────────────────────────────────────────────────────
    // Sampled exact ground truth on the *final* epoch, cached against its
    // cluster content hashes (repeat benches over an unchanged epoch reuse
    // the brute-forced answers). The swept per-query comparison caps
    // chart recall@k against the budget.
    let epoch = engine.current_epoch();
    // The last rebuild built this epoch; a from-scratch build of its plan
    // computes Σ|C|(|C|−1)/2 (every cluster is brute-forced here) — what
    // `ClusterCache::total_comparisons` reports.
    let from_scratch: u64 = BuildPlan::assign(&engine.config().c2, epoch.dataset())
        .clusters()
        .iter()
        .map(|users| pair_count(users.len()))
        .sum();
    let rebuild_comparisons_share =
        history.last().map_or(1.0, |r| r.comparisons as f64 / from_scratch.max(1) as f64);
    let truth_cfg = GroundTruthConfig {
        sample: if cfg!(debug_assertions) { 16 } else { 64 },
        k: QUERY_K,
        seed: args.seed ^ 0x6E_D0,
    };
    let mut truth_cache = GroundTruthCache::new();
    let key = epoch_key(epoch.dataset(), &engine.config().c2);
    // The oracle brute-forces the *serving metric*: with a GoldFinger
    // backend the engine ranks by sketch estimates, so the exact answer is
    // the exhaustive top-k under those same estimates (`f64` cast to
    // `f32`, matching the kernels). Recall then isolates what admission
    // budgets and beam narrowing actually degrade — search coverage — and
    // not the sketch's own approximation error, which no budget can buy
    // back. A Raw-backend epoch falls through to exact Jaccard.
    let truth = match epoch.fingerprints() {
        Some(gf) => truth_cache
            .get_or_compute_with(key, epoch.dataset(), &truth_cfg, |d, v| gf.estimate(d, v) as f32),
        None => truth_cache.get_or_compute(key, epoch.dataset(), &truth_cfg),
    };
    let recall_queries: Vec<Vec<u32>> =
        truth.queries.iter().map(|&donor| epoch.dataset().profile(donor).to_vec()).collect();
    let recall_of = |max_comparisons: usize| {
        let beam = BeamSearchConfig { max_comparisons, ..engine.config().beam };
        let batch: Vec<BatchQuery> = recall_queries
            .iter()
            .enumerate()
            .map(|(qi, profile)| BatchQuery { profile, k: QUERY_K, seed: qi as u64 })
            .collect();
        let answers: Vec<Vec<u32>> = epoch
            .index()
            .search_batch(&batch, &beam)
            .into_iter()
            .map(|r| r.neighbors.into_iter().map(|n| n.user).collect())
            .collect();
        truth.mean_recall(&answers)
    };
    let recall_by_budget: Vec<(usize, f64)> =
        RECALL_BUDGETS.iter().map(|&cap| (cap, recall_of(cap))).collect();
    let recall_at_k = recall_of(engine.config().beam.max_comparisons);

    let metered = stats.admitted + stats.shed;
    let shed_rate = if metered == 0 { 0.0 } else { stats.shed as f64 / metered as f64 };

    let ops = (stats.queries + stats.inserts) as usize;
    let report = ServeReport {
        clients,
        num_users_start: num_users,
        num_users_end: stats.num_users,
        build_ms,
        ops,
        queries: stats.queries as usize,
        inserts: stats.inserts as usize,
        epoch_swaps: stats.epoch_swaps,
        qps: ops as f64 / traffic_s,
        query_p50_us: query_hist.quantile(0.50) as f64 / 1e3,
        query_p99_us: query_hist.quantile(0.99) as f64 / 1e3,
        insert_p50_us: insert_hist.quantile(0.50) as f64 / 1e3,
        insert_p99_us: insert_hist.quantile(0.99) as f64 / 1e3,
        reuse_ratio_mean,
        reuse_ratio_last,
        rebuild_comparisons_share,
        rebuild_ms_p50: percentile(&rebuild_ms, 0.50),
        rebuild_ms_p99: percentile(&rebuild_ms, 0.99),
        admitted: stats.admitted,
        shed: stats.shed,
        shed_rate,
        budget_per_sec: args.budget.unwrap_or(0),
        slo_target_us: args.slo_us.unwrap_or(0),
        beam_scale_pct: engine.beam_scale_pct(),
        recall_at_k,
        recall_k: truth_cfg.k,
        recall_sample: truth.queries.len(),
        recall_by_budget,
        robustness,
    };
    if let Some(r) = &report.robustness {
        eprintln!(
            "  serve faults ({}): {} injected, {} retries, {} requeued clusters, \
             {} rebuild failures, {} quarantined; {:.0} ops/s p99 {:.0} µs faulted \
             vs {:.0} ops/s p99 {:.0} µs fault-free",
            r.spec,
            r.injected,
            r.retries,
            r.requeued_clusters,
            r.rebuild_failures,
            r.quarantined_snapshots,
            r.faulted_qps,
            r.faulted_query_p99_us,
            r.baseline_qps,
            r.baseline_query_p99_us,
        );
    }
    eprintln!(
        "  serve: {} clients, {:.0} ops/s, query p50 {:.0} µs / p99 {:.0} µs, \
         {} epoch swaps ({} → {} users), reuse {:.2} mean, rebuild p50 {:.1} ms, \
         recall@{} {:.3}, shed {} ({:.1}%)",
        report.clients,
        report.qps,
        report.query_p50_us,
        report.query_p99_us,
        report.epoch_swaps,
        report.num_users_start,
        report.num_users_end,
        report.reuse_ratio_mean,
        report.rebuild_ms_p50,
        report.recall_k,
        report.recall_at_k,
        report.shed,
        report.shed_rate * 100.0,
    );
    report
}

/// Renders the JSON document recorded at the workspace root.
pub fn to_json(report: &ServeReport, args: &HarnessArgs) -> String {
    let by_budget = report
        .recall_by_budget
        .iter()
        .map(|&(cap, recall)| format!("\"{cap}\": {recall:.4}"))
        .collect::<Vec<_>>()
        .join(", ");
    let robustness = match &report.robustness {
        None => "null".to_owned(),
        Some(r) => format!(
            "{{\"spec\": \"{}\", \
             \"baseline\": {{\"qps\": {:.1}, \"query_p99_us\": {:.1}}}, \
             \"faulted\": {{\"qps\": {:.1}, \"query_p99_us\": {:.1}}}, \
             \"injected\": {}, \"retries\": {}, \"requeued_clusters\": {}, \
             \"rebuild_failures\": {}, \"quarantined_snapshots\": {}}}",
            r.spec,
            r.baseline_qps,
            r.baseline_query_p99_us,
            r.faulted_qps,
            r.faulted_query_p99_us,
            r.injected,
            r.retries,
            r.requeued_clusters,
            r.rebuild_failures,
            r.quarantined_snapshots,
        ),
    };
    format!(
        "{{\n  \"experiment\": \"serve\",\n  \"scale\": {},\n  \"seed\": {},\n  \
         \"clients\": {},\n  \"num_users_start\": {},\n  \"num_users_end\": {},\n  \
         \"build_ms\": {:.3},\n  \"ops\": {},\n  \"queries\": {},\n  \"inserts\": {},\n  \
         \"epoch_swaps\": {},\n  \"qps\": {:.1},\n  \
         \"query_latency_us\": {{\"p50\": {:.1}, \"p99\": {:.1}}},\n  \
         \"insert_latency_us\": {{\"p50\": {:.1}, \"p99\": {:.1}}},\n  \
         \"rebuild\": {{\"reuse_ratio_mean\": {:.4}, \"reuse_ratio_last\": {:.4}, \
         \"rebuild_comparisons_share\": {:.4}, \
         \"rebuild_ms\": {{\"p50\": {:.2}, \"p99\": {:.2}}}}},\n  \
         \"slo\": {{\"budget_per_sec\": {}, \"target_p99_us\": {}, \"admitted\": {}, \
         \"shed\": {}, \"shed_rate\": {:.4}, \"beam_scale_pct\": {}}},\n  \
         \"recall\": {{\"k\": {}, \"sample\": {}, \"recall_at_k\": {:.4}, \
         \"by_comparison_budget\": {{{}}}}},\n  \
         \"robustness\": {}\n}}\n",
        args.scale,
        args.seed,
        report.clients,
        report.num_users_start,
        report.num_users_end,
        report.build_ms,
        report.ops,
        report.queries,
        report.inserts,
        report.epoch_swaps,
        report.qps,
        report.query_p50_us,
        report.query_p99_us,
        report.insert_p50_us,
        report.insert_p99_us,
        report.reuse_ratio_mean,
        report.reuse_ratio_last,
        report.rebuild_comparisons_share,
        report.rebuild_ms_p50,
        report.rebuild_ms_p99,
        report.budget_per_sec,
        report.slo_target_us,
        report.admitted,
        report.shed,
        report.shed_rate,
        report.beam_scale_pct,
        report.recall_k,
        report.recall_sample,
        report.recall_at_k,
        by_budget,
        robustness,
    )
}

/// Runs the bench, writes `BENCH_serve.json` (best-effort) and renders
/// the markdown section for `repro_all`.
pub fn run(args: &HarnessArgs) -> String {
    let report = bench(args);

    // Recording is skipped under `cfg(test)` so unit tests don't clobber
    // the checked-in baseline with debug-build numbers.
    #[cfg(not(test))]
    {
        use serde::{json, Value};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        // The snapshot experiment splices its own `"snapshot"` key into
        // this document; carry it across the rewrite so the two benches
        // compose in either order.
        let spliced = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| json::parse(&text).ok())
            .and_then(|root| match root {
                Value::Object(fields) => fields.into_iter().find(|(key, _)| key == "snapshot"),
                _ => None,
            });
        let json = match (spliced, json::parse(&to_json(&report, args))) {
            (Some(entry), Ok(Value::Object(mut fields))) => {
                fields.push(entry);
                json::to_string(&Value::Object(fields))
            }
            _ => to_json(&report, args),
        };
        if let Err(err) = std::fs::write(path, &json) {
            eprintln!("cannot write {path} ({err}); continuing");
        }
    }
    crate::write_profile(args);

    let mut md = format!(
        "## Online serving — epoch-swapped engine under mixed traffic\n\n\
         *{} client threads, {} queries : 1 insert; initial epoch {} users \
         (C² sharded build {:.0} ms); inserts trigger a full rebuild + atomic \
         epoch swap every ~third of the insert stream*\n\n\
         | metric | value |\n|:---|---:|\n\
         | aggregate throughput | {:.0} ops/s |\n\
         | query p50 / p99 | {:.0} µs / {:.0} µs |\n\
         | insert p50 / p99 | {:.0} µs / {:.0} µs |\n\
         | epoch swaps under load | {} |\n\
         | cluster reuse ratio (mean / last) | {:.2} / {:.2} |\n\
         | comparisons redone by the last rebuild | {:.1}% |\n\
         | epoch rebuild p50 / p99 | {:.1} ms / {:.1} ms |\n\
         | users served (start → end) | {} → {} |\n\
         | recall@{} (final epoch, {} sampled queries) | {:.3} |\n\
         | admission (admitted / shed) | {} / {} ({:.1}% shed) |\n\n\
         Recorded to `BENCH_serve.json`.\n\n",
        report.clients,
        QUERIES_PER_INSERT,
        report.num_users_start,
        report.build_ms,
        report.qps,
        report.query_p50_us,
        report.query_p99_us,
        report.insert_p50_us,
        report.insert_p99_us,
        report.epoch_swaps,
        report.reuse_ratio_mean,
        report.reuse_ratio_last,
        report.rebuild_comparisons_share * 100.0,
        report.rebuild_ms_p50,
        report.rebuild_ms_p99,
        report.num_users_start,
        report.num_users_end,
        report.recall_k,
        report.recall_sample,
        report.recall_at_k,
        report.admitted,
        report.shed,
        report.shed_rate * 100.0,
    );
    if let Some(r) = &report.robustness {
        md.push_str(&format!(
            "**Fault injection** (`{}`): {} faults injected — {} spill retries, \
             {} requeued clusters, {} absorbed rebuild failures, {} quarantined \
             snapshots. Under faults: {:.0} ops/s, query p99 {:.0} µs; fault-free \
             baseline: {:.0} ops/s, query p99 {:.0} µs.\n\n",
            r.spec,
            r.injected,
            r.retries,
            r.requeued_clusters,
            r.rebuild_failures,
            r.quarantined_snapshots,
            r.faulted_qps,
            r.faulted_query_p99_us,
            r.baseline_qps,
            r.baseline_query_p99_us,
        ));
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_throughput_latency_and_swaps() {
        let args = HarnessArgs { scale: 0.02, clients: Some(2), ..HarnessArgs::default() };
        let report = run(&args);
        for needle in [
            "ops/s",
            "query p50 / p99",
            "insert p50 / p99",
            "epoch swaps under load",
            "cluster reuse ratio",
            "epoch rebuild p50 / p99",
            "recall@10",
            "admission (admitted / shed)",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in {report}");
        }
    }

    #[test]
    fn recall_and_slo_fields_are_recorded() {
        let args = HarnessArgs { scale: 0.02, clients: Some(2), ..HarnessArgs::default() };
        let report = bench(&args);
        assert_eq!(report.recall_k, QUERY_K);
        assert!(report.recall_sample > 0);
        assert!((0.0..=1.0).contains(&report.recall_at_k));
        // Unbudgeted, no-SLO run: admission never engaged, full beam.
        assert_eq!(report.admitted, 0);
        assert_eq!(report.shed, 0);
        assert_eq!(report.shed_rate, 0.0);
        assert_eq!(report.beam_scale_pct, 100);
        assert_eq!(report.budget_per_sec, 0);
        // The default beam is uncapped, so the sweep's uncapped point is
        // the same measurement as recall_at_k.
        let uncapped = report
            .recall_by_budget
            .iter()
            .find(|&&(cap, _)| cap == 0)
            .expect("sweep includes the uncapped point")
            .1;
        assert_eq!(uncapped, report.recall_at_k);
        // A generous budget cannot do worse than the tightest one.
        let tightest = report.recall_by_budget[0].1;
        assert!(uncapped >= tightest - 1e-9, "uncapped {uncapped} < capped {tightest}");
    }

    #[test]
    fn budgeted_run_sheds_under_starvation_without_panicking() {
        // A budget of one comparison per second cannot admit the mixed
        // traffic; every metered query must shed with a typed rejection
        // and the bench must still produce a coherent report.
        let args = HarnessArgs {
            scale: 0.02,
            clients: Some(2),
            budget: Some(1),
            ..HarnessArgs::default()
        };
        let report = bench(&args);
        assert!(report.shed > 0, "starvation budget must shed");
        assert!(
            report.shed_rate > 0.9,
            "shed rate {} too low for a 1 cmp/s budget",
            report.shed_rate
        );
        assert_eq!(report.budget_per_sec, 1);
        // Recall is measured on the unmetered index path, so it is
        // unaffected by admission starvation.
        assert!((0.0..=1.0).contains(&report.recall_at_k));
    }

    #[test]
    fn traffic_mix_and_swap_accounting_add_up() {
        let args = HarnessArgs { scale: 0.02, clients: Some(2), ..HarnessArgs::default() };
        let report = bench(&args);
        assert_eq!(report.ops, report.queries + report.inserts);
        // Mirror the client loop: debug builds run 120 ops per client,
        // every 16th an insert.
        let inserts_per_client =
            (0..120).filter(|op| op % (QUERIES_PER_INSERT + 1) == QUERIES_PER_INSERT).count();
        assert_eq!(report.inserts, 2 * inserts_per_client);
        assert_eq!(report.queries, 2 * 120 - report.inserts);
        assert!(report.epoch_swaps >= 1, "the workload must trigger at least one swap");
        // Each swap publishes exactly `rebuild_after` absorbed inserts
        // (same formula as the bench body).
        let rebuild_after = (2 * 120 / (QUERIES_PER_INSERT + 1) / 3).max(8);
        assert_eq!(
            report.num_users_end,
            report.num_users_start + report.epoch_swaps as usize * rebuild_after
        );
        assert!(report.qps > 0.0);
        assert!(report.query_p99_us >= report.query_p50_us);
        // Rebuilds after the first swap reuse clusters (the inserts touch
        // a handful of the thousands of tiny clusters).
        assert!((0.0..=1.0).contains(&report.reuse_ratio_mean));
        assert!(
            report.reuse_ratio_last > 0.0,
            "the last epoch publish must reuse cached clusters, got {}",
            report.reuse_ratio_last
        );
        assert!(
            report.rebuild_comparisons_share < 0.5,
            "the last rebuild redid {:.0}% of a from-scratch build's comparisons",
            report.rebuild_comparisons_share * 100.0
        );
        assert!(report.rebuild_ms_p99 >= report.rebuild_ms_p50);
        assert!(report.rebuild_ms_p50 > 0.0);
    }

    #[test]
    fn faulted_run_records_a_robustness_point() {
        // Span 2 stays under the runtime's per-cluster retry budget (3), so
        // every injected solver panic is absorbed by requeueing and the
        // faulted build still publishes — the surviving-run regime the
        // chaos proptest pins bit-for-bit.
        let args = HarnessArgs {
            scale: 0.02,
            clients: Some(2),
            faults: Some(cnc_faults::FaultPlan::parse("seed=42,p=0.5,span=2").unwrap()),
            ..HarnessArgs::default()
        };
        let report = bench(&args);
        assert!(!Faults::global().armed(), "bench must disarm the registry on exit");
        let r = report.robustness.as_ref().expect("--faults records a robustness point");
        assert_eq!(r.spec, "seed=42,p=0.5,span=2");
        assert!(r.baseline_qps > 0.0);
        assert!(r.faulted_qps > 0.0);
        assert!(r.injected > 0, "a 50% schedule over the re-solved clusters must fire");
        assert!(r.requeued_clusters > 0, "injected solver panics requeue their clusters");
        assert_eq!(r.rebuild_failures, 0, "span 2 is absorbed below the retry budget");
        assert_eq!(r.quarantined_snapshots, 0, "this bench never touches snapshots");
        // The engine kept serving: swaps happened in both phases and the
        // recall phase ran on a fully published epoch.
        assert!(report.epoch_swaps >= 1);
        assert!((0.0..=1.0).contains(&report.recall_at_k));
        let json = to_json(&report, &args);
        assert!(json.contains("\"robustness\": {\"spec\": \"seed=42,p=0.5,span=2\""));
        assert!(json.contains("\"requeued_clusters\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn fault_free_run_records_no_robustness_point() {
        let args = HarnessArgs { scale: 0.02, clients: Some(2), ..HarnessArgs::default() };
        let report = bench(&args);
        assert!(report.robustness.is_none());
        assert!(to_json(&report, &args).contains("\"robustness\": null"));
    }

    #[test]
    fn json_is_well_formed_enough_to_grep() {
        let args = HarnessArgs { scale: 0.02, clients: Some(2), ..HarnessArgs::default() };
        let report = bench(&args);
        let json = to_json(&report, &args);
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"experiment\": \"serve\""));
        assert!(json.contains("\"qps\""));
        assert!(json.contains("\"epoch_swaps\""));
        assert!(json.contains("\"reuse_ratio_mean\""));
        assert!(json.contains("\"rebuild_comparisons_share\""));
        assert!(json.contains("\"rebuild_ms\""));
        assert!(json.contains("\"recall_at_k\""));
        assert!(json.contains("\"by_comparison_budget\""));
        assert!(json.contains("\"shed\""));
        assert!(json.contains("\"shed_rate\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn percentiles_are_sane() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&sorted_ns_to_us(&[1000]), 0.99), 1.0);
        let us = sorted_ns_to_us(&(1..=100).map(|i| i * 1000).collect::<Vec<u64>>());
        assert!((percentile(&us, 0.5) - 51.0).abs() < 1.5);
        assert!((percentile(&us, 0.99) - 99.0).abs() < 1.5);
    }

    /// Satellite check for the histogram migration: on identical samples,
    /// the telemetry histogram's quantile and the old exact-Vec percentile
    /// land in the same or adjacent log-linear bucket — the histogram only
    /// quantizes, it never misranks.
    #[test]
    fn histogram_quantiles_match_vec_percentiles_within_one_bucket() {
        use cnc_telemetry::Histogram;
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        // Latency-shaped samples: a dense body around tens of µs with a
        // sparse ms-scale tail (rebuild-blocked inserts).
        let mut samples: Vec<u64> = (0..10_000)
            .map(|_| {
                let base = 20_000u64 + rng.random_range(0..60_000u64);
                if rng.random_range(0..100u32) < 2 {
                    base + rng.random_range(1_000_000..40_000_000u64)
                } else {
                    base
                }
            })
            .collect();
        let hist = Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = percentile(&sorted_ns_to_us(&samples), q) * 1e3;
            let approx = hist.quantile(q) as f64;
            let exact_bucket = Histogram::bucket_index(exact as u64) as i64;
            let approx_bucket = Histogram::bucket_index(approx as u64) as i64;
            assert!(
                (exact_bucket - approx_bucket).abs() <= 1,
                "q={q}: exact {exact} ns (bucket {exact_bucket}) vs histogram {approx} ns \
                 (bucket {approx_bucket}) differ by more than one bucket"
            );
        }
    }

    #[test]
    fn bench_latency_histograms_cover_every_operation() {
        let args = HarnessArgs { scale: 0.02, clients: Some(2), ..HarnessArgs::default() };
        let report = bench(&args);
        // The bench asserts hist.count == engine stats internally; here we
        // additionally pin that the quantiles it derived are plausible.
        assert!(report.query_p50_us > 0.0);
        assert!(report.insert_p50_us > 0.0);
        assert!(report.query_p99_us >= report.query_p50_us);
        assert!(report.insert_p99_us >= report.insert_p50_us);
    }
}
