//! Distributed build recovery: the graph stays the single-process
//! [`ClusterAndConquer::build`]'s when a worker is SIGKILLed or dies, its
//! clusters requeued onto survivors or, with none left, solved inline,
//! and when sends fail and retry. Escalation is typed: a cluster that
//! kills `MAX_CLUSTER_ATTEMPTS` processes fails the build with
//! `ClusterExhausted`, and the publisher keeps the last good result live.
//! The processes × shards × transport matrix is `tests/conformance.rs`'s.
//!
//! This binary runs without the libtest harness because it *is* the
//! worker fleet: the coordinator re-execs `current_exe()` with
//! `--distrib-worker`, which [`maybe_run_worker`] intercepts first
//! thing in `main`.

use cluster_and_conquer::distrib::{
    DistribConfig, DistribError, DistribPublisher, DistribResult, DistribRuntime, KillSpec,
    ProcExit, MAX_CLUSTER_ATTEMPTS,
};
use cluster_and_conquer::prelude::*;
use cnc_faults::Site;
use cnc_telemetry::wire::TID_STRIDE;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

fn main() {
    cluster_and_conquer::distrib::maybe_run_worker();

    let tests: &[(&str, fn())] = &[
        ("killed_worker_recovers_bit_identically", killed_worker_recovers_bit_identically),
        (
            "dying_worker_requeues_its_clusters_onto_survivors",
            dying_worker_requeues_its_clusters_onto_survivors,
        ),
        (
            "worker_exit_chaos_drains_into_inline_recovery",
            worker_exit_chaos_drains_into_inline_recovery,
        ),
        (
            "transport_send_chaos_is_absorbed_by_backoff",
            transport_send_chaos_is_absorbed_by_backoff,
        ),
        ("hot_cluster_escalates_to_typed_exhaustion", hot_cluster_escalates_to_typed_exhaustion),
        (
            "publisher_keeps_last_good_across_failed_rebuild",
            publisher_keeps_last_good_across_failed_rebuild,
        ),
        ("remote_spans_merge_into_one_timeline", remote_spans_merge_into_one_timeline),
    ];
    let mut failed = 0;
    for (name, test) in tests {
        print!("test {name} ... ");
        std::io::stdout().flush().expect("stdout");
        match catch_unwind(AssertUnwindSafe(test)) {
            Ok(()) => println!("ok"),
            Err(_) => {
                failed += 1;
                println!("FAILED");
            }
        }
    }
    println!();
    if failed > 0 {
        println!("test result: FAILED. {} passed; {failed} failed", tests.len() - failed);
        std::process::exit(1);
    }
    println!("test result: ok. {} passed; 0 failed", tests.len());
}

fn distrib_dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| {
        let mut cfg = SyntheticConfig::small(7711);
        cfg.num_users = 380;
        cfg.num_items = 320;
        cfg.communities = 8;
        cfg.mean_profile = 20.0;
        cfg.min_profile = 6;
        cfg.generate()
    })
}

fn c2_config() -> C2Config {
    C2Config {
        k: 8,
        b: 64,
        t: 3,
        max_cluster_size: 120,
        backend: SimilarityBackend::Raw,
        seed: 17,
        threads: 1,
        ..C2Config::default()
    }
}

fn baseline() -> &'static KnnGraph {
    static GRAPH: OnceLock<KnnGraph> = OnceLock::new();
    GRAPH.get_or_init(|| ClusterAndConquer::new(c2_config()).build(distrib_dataset()).graph)
}

fn assert_bit_identical(distributed: &KnnGraph, label: &str) {
    let single = baseline();
    assert_eq!(single.num_users(), distributed.num_users(), "{label}");
    for u in 0..single.num_users() as u32 {
        assert_eq!(
            single.neighbors(u).sorted(),
            distributed.neighbors(u).sorted(),
            "{label}: user {u} differs between single-process and distributed builds"
        );
    }
}

fn execute(config: DistribConfig, label: &str) -> DistribResult {
    DistribRuntime::new(config)
        .execute(distrib_dataset(), &c2_config())
        .unwrap_or_else(|e| panic!("{label}: distributed build failed: {e}"))
}

/// SIGKILL a worker after its first solved cluster. The signal is
/// asynchronous — a fast worker may have drained its whole batch into
/// the pipe before it lands, so whether anything was left to requeue is
/// a race — and what is asserted holds on both sides of it: the merge
/// lands on the same bits (buffered complete frames drain; partial
/// frames drop) and exactly the killed worker is reported dead.
/// Requeueing itself is pinned where it cannot race, in
/// [`dying_worker_requeues_its_clusters_onto_survivors`].
fn killed_worker_recovers_bit_identically() {
    let label = "kill worker 0 after 1 cluster";
    let result = execute(
        DistribConfig {
            processes: 3,
            reduce_shards: 2,
            kill: Some(KillSpec { worker: 0, after_clusters: 1 }),
            ..DistribConfig::default()
        },
        label,
    );
    assert_bit_identical(&result.graph, label);
    assert_eq!(result.report.worker_deaths, 1, "{label}: exactly the killed worker dies");
    assert!(matches!(result.report.workers[0].exit, ProcExit::Dead(_)), "{label}");
}

/// `worker.exit` drawing one cluster for one death, over 3 processes:
/// the site is consulted inside the worker, keyed on `(cluster,
/// attempt)`, so the holder of that cluster dies before solving it
/// whatever the timing. The cluster — and the rest of the dead worker's
/// queue — requeues onto the two survivors at attempt 1, past the drawn
/// budget; the inline lane never runs.
fn dying_worker_requeues_its_clusters_onto_survivors() {
    let label = "worker.exit on one cluster, once";
    let (plan, _) = hot_cluster_plan(1, |budget| budget < MAX_CLUSTER_ATTEMPTS);
    let result = execute(
        DistribConfig {
            processes: 3,
            reduce_shards: 2,
            faults_spec: Some(plan.spec()),
            ..DistribConfig::default()
        },
        label,
    );
    assert_bit_identical(&result.graph, label);
    assert_eq!(result.report.worker_deaths, 1, "{label}: the cluster's first holder dies");
    assert!(result.report.requeued_clusters >= 1, "{label}: the drawn cluster was in flight");
    assert_eq!(result.report.recovered_inline, 0, "{label}: survivors absorb the requeue");
}

/// `worker.exit` at p=1, span=1: every worker dies on its first
/// cluster, zero survivors remain, and the coordinator's inline
/// recovery lane solves the entire pool — still bit-identical.
fn worker_exit_chaos_drains_into_inline_recovery() {
    let label = "worker.exit p=1 span=1";
    let spec = FaultPlan::new(4242, 1.0).with_span(1).only(&[Site::WorkerExit]).spec();
    let result = execute(
        DistribConfig {
            processes: 2,
            reduce_shards: 2,
            faults_spec: Some(spec),
            ..DistribConfig::default()
        },
        label,
    );
    assert_bit_identical(&result.graph, label);
    assert_eq!(result.report.worker_deaths, 2, "{label}: both workers must die");
    assert_eq!(
        result.report.recovered_inline, result.report.clusters_total as u64,
        "{label}: with no survivors, every cluster is solved inline"
    );
}

/// `transport.send` at p=1: every frame send draws injected IO and the
/// gate's retry absorbs it (span ≤ `MAX_SPAN` < `RETRY_ATTEMPTS`) — no
/// deaths, same bits, retries accounted in the report.
fn transport_send_chaos_is_absorbed_by_backoff() {
    let label = "transport.send p=1";
    let spec = FaultPlan::new(99, 1.0).with_span(3).only(&[Site::TransportSend]).spec();
    let result = execute(
        DistribConfig {
            processes: 2,
            reduce_shards: 2,
            faults_spec: Some(spec),
            ..DistribConfig::default()
        },
        label,
    );
    assert_bit_identical(&result.graph, label);
    assert_eq!(result.report.worker_deaths, 0, "{label}: retries, not deaths");
    assert!(result.report.transport_retries > 0, "{label}: p=1 must cost transport retries");
    assert!(result.report.worker_injected > 0, "{label}: faults fired in workers");
}

/// Finds a fault seed whose `worker.exit` schedule (at `span`) draws
/// exactly one cluster, with a failure budget `accept` takes. Pure
/// arithmetic on [`FaultPlan::failure_budget`] — no processes involved.
fn hot_cluster_plan(span: u32, accept: impl Fn(u32) -> bool) -> (FaultPlan, usize) {
    let total = BuildPlan::assign(&c2_config(), distrib_dataset()).clusters().len();
    assert!(total >= 8, "chaos dataset must split into enough clusters (got {total})");
    for seed in 0..20_000u64 {
        let plan = FaultPlan::new(seed, 0.02).with_span(span).only(&[Site::WorkerExit]);
        let mut drawn = (0..total as u64)
            .filter(|&c| plan.failure_budget(Site::WorkerExit, c) > 0)
            .collect::<Vec<_>>();
        if drawn.len() == 1 {
            let cluster = drawn.pop().expect("one drawn") as usize;
            if accept(plan.failure_budget(Site::WorkerExit, cluster as u64)) {
                return (plan, cluster);
            }
        }
    }
    panic!("no seed draws exactly one hot cluster with an accepted budget");
}

/// The plan that kills `MAX_CLUSTER_ATTEMPTS` successive holders of one
/// cluster.
fn exhausting_plan() -> (FaultPlan, usize) {
    hot_cluster_plan(6, |budget| budget >= MAX_CLUSTER_ATTEMPTS)
}

/// One cluster with a ≥3-death budget, plenty of healthy survivors:
/// the coordinator requeues it twice, then fails typed with
/// `ClusterExhausted` naming that cluster — never a wrong graph.
fn hot_cluster_escalates_to_typed_exhaustion() {
    let (plan, hot) = exhausting_plan();
    let runtime = DistribRuntime::new(DistribConfig {
        processes: 4,
        reduce_shards: 2,
        faults_spec: Some(plan.spec()),
        ..DistribConfig::default()
    });
    match runtime.execute(distrib_dataset(), &c2_config()) {
        Err(DistribError::ClusterExhausted { cluster, attempts }) => {
            assert_eq!(cluster, hot, "the hot cluster is named");
            assert_eq!(attempts, MAX_CLUSTER_ATTEMPTS);
        }
        Err(other) => panic!("expected ClusterExhausted, got: {other}"),
        Ok(result) => panic!(
            "build must fail typed; it completed with {} deaths",
            result.report.worker_deaths
        ),
    }
}

/// The serving-writer contract at fleet level: a failed rebuild leaves
/// the previously published result untouched.
fn publisher_keeps_last_good_across_failed_rebuild() {
    let (plan, _) = exhausting_plan();
    let mut publisher = DistribPublisher::new(DistribRuntime::new(DistribConfig {
        processes: 2,
        reduce_shards: 2,
        ..DistribConfig::default()
    }));
    let good = publisher.rebuild(distrib_dataset(), &c2_config()).expect("clean rebuild publishes");
    assert_bit_identical(&good.graph, "published build");

    publisher.runtime_mut().config_mut().processes = 4;
    publisher.runtime_mut().config_mut().faults_spec = Some(plan.spec());
    let err = publisher
        .rebuild(distrib_dataset(), &c2_config())
        .expect_err("hot cluster must fail the rebuild");
    assert!(matches!(err, DistribError::ClusterExhausted { .. }), "typed failure: {err}");
    let current = publisher.current().expect("last good stays live");
    assert!(Arc::ptr_eq(&current, &good), "failed rebuild must not replace the result");
}

/// Workers ship their span records at finish; the coordinator merges
/// them under per-process tid offsets into one loadable timeline.
fn remote_spans_merge_into_one_timeline() {
    let telemetry = Telemetry::global();
    telemetry.enable(true);
    let result = execute(
        DistribConfig {
            processes: 2,
            reduce_shards: 2,
            telemetry: true,
            ..DistribConfig::default()
        },
        "telemetry run",
    );
    telemetry.enable(false);
    assert!(result.report.remote_spans > 0, "workers must ship span records");
    let records = telemetry.span_records();
    assert!(
        records.iter().any(|r| r.thread >= TID_STRIDE),
        "merged remote spans carry per-process tid offsets"
    );
    assert!(
        records.iter().any(|r| r.name == "distrib.worker.process"),
        "worker process spans appear in the combined timeline"
    );
}
