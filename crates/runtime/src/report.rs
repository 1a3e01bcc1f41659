//! Measured execution reports — the counterpart of the *predicted*
//! [`DeploymentPlan`](cnc_core::DeploymentPlan).

use crate::config::SpillMode;
use cnc_core::DeploymentPlan;
use cnc_telemetry::SpanRecord;
use std::path::PathBuf;
use std::time::Duration;

/// What one worker shard actually did.
#[derive(Clone, Debug)]
pub struct WorkerStats {
    /// The worker's index in `0..W`.
    pub worker: usize,
    /// Cluster indices solved by this worker, in execution order.
    pub clusters: Vec<usize>,
    /// Wall-clock time this worker spent solving clusters and writing
    /// spill files (channel back-pressure excluded).
    pub busy: Duration,
    /// Predicted cost (Algorithm 2 similarity estimates) of the clusters
    /// this worker solved.
    pub solved_cost: u64,
    /// Reduce-phase entries `(user, neighbour, sim)` this worker shipped,
    /// through channels and spill files combined.
    pub shuffle_entries: u64,
    /// Of `shuffle_entries`, how many went through spill files.
    pub spilled_entries: u64,
    /// Encoded bytes this worker wrote to spill files.
    pub spilled_bytes: u64,
    /// How many of `clusters` were stolen from another worker's queue.
    pub stolen: usize,
    /// Solve attempts this worker caught panicking and returned to the
    /// queue for re-execution (0 without injected or genuine faults).
    pub requeued: u64,
    /// Partial-list records rerouted from a broken spill stream to the
    /// in-memory channel (0 unless a spill create/append hard-failed).
    pub spill_rerouted: u64,
    /// Similarity computations this worker's cluster solves performed —
    /// summed from the solver's *returned* counts, an accounting path
    /// independent of the oracle's atomic counter the report-level
    /// `comparisons` figure reads (their equality is an invariant).
    pub comparisons: u64,
}

/// What one reduce shard actually did.
#[derive(Clone, Debug)]
pub struct ReduceStats {
    /// The shard's index in `0..R`.
    pub shard: usize,
    /// Users this shard owns (its partition size).
    pub users: usize,
    /// Entries `(user, neighbour, sim)` merged, from channels and spill
    /// files combined.
    pub entries: u64,
    /// Of `entries`, how many were replayed from spill files.
    pub spilled_entries: u64,
    /// Encoded spill bytes this shard replayed.
    pub spilled_bytes: u64,
    /// Wall-clock time spent decoding and merging (idle receive excluded).
    pub busy: Duration,
}

/// The measured record of one sharded build, paired with the plan that
/// drove it so predicted and measured figures can be compared directly.
///
/// An incremental rebuild the plan's patch stage took
/// (`cnc_core::BuildPlan::patch`) ran no map or reduce stage: its report
/// says so in [`patched`](RuntimeReport::patched) and has no workers, no
/// reducers and an empty plan (what the stage did is in the result's
/// `RebuildStats`).
#[derive(Clone, Debug)]
pub struct RuntimeReport {
    /// True when the plan's patch stage produced the graph and no map,
    /// shuffle or reduce stage ran.
    pub patched: bool,
    /// The static LPT plan the run started from (predicted makespan,
    /// per-worker costs and shuffle volume live here).
    pub plan: DeploymentPlan,
    /// Per-worker measurements.
    pub workers: Vec<WorkerStats>,
    /// Per-reduce-shard measurements.
    pub reducers: Vec<ReduceStats>,
    /// Entries `(user, neighbour, sim)` the map workers shipped to the
    /// reduce stage.
    pub shuffle_entries: u64,
    /// The spill policy the run executed under.
    pub spill: SpillMode,
    /// The unique temp dir spill files were written to (`None` when the
    /// spill mode is [`SpillMode::Off`]). The dir is removed before the
    /// build returns, so this path records *where* the shuffle spilled,
    /// not a live location.
    pub spill_dir: Option<PathBuf>,
    /// Number of clusters in the build's clustering — each *scheduled and
    /// executed* by a map worker unless the rebuild was `patched`.
    pub num_clusters: usize,
    /// Number of users in the dataset (the partition total).
    pub num_users: usize,
    /// Recursive splits performed during clustering.
    pub splits: usize,
    /// Similarity computations performed during the run.
    pub comparisons: u64,
    /// Wall-clock of Step 1 (clustering + fingerprint building).
    pub clustering_wall: Duration,
    /// Wall-clock of the overlapped map + reduce stages.
    pub map_reduce_wall: Duration,
    /// End-to-end wall-clock.
    pub total_wall: Duration,
}

impl RuntimeReport {
    /// The measured map-phase makespan: the busiest worker's busy time.
    pub fn measured_makespan(&self) -> Duration {
        self.workers.iter().map(|w| w.busy).max().unwrap_or(Duration::ZERO)
    }

    /// Total busy time across all workers (the work a single worker would
    /// have had to serialize).
    pub fn total_busy(&self) -> Duration {
        self.workers.iter().map(|w| w.busy).sum()
    }

    /// Measured parallel speed-up of the map phase over a single worker
    /// (`total busy / makespan`, the measured analogue of
    /// [`DeploymentPlan::speedup`]; ≤ the worker count).
    pub fn measured_speedup(&self) -> f64 {
        let makespan = self.measured_makespan().as_secs_f64();
        if makespan == 0.0 {
            return 1.0;
        }
        self.total_busy().as_secs_f64() / makespan
    }

    /// Measured load imbalance: makespan over the ideal per-worker share
    /// (1.0 = perfectly balanced; the measured analogue of
    /// [`DeploymentPlan::imbalance`]).
    pub fn measured_imbalance(&self) -> f64 {
        if self.workers.is_empty() {
            return 1.0;
        }
        let ideal = self.total_busy().as_secs_f64() / self.workers.len() as f64;
        if ideal == 0.0 {
            return 1.0;
        }
        self.measured_makespan().as_secs_f64() / ideal
    }

    /// Total clusters stolen across workers (0 under
    /// [`StealPolicy::Disabled`](crate::StealPolicy::Disabled)).
    pub fn stolen_clusters(&self) -> usize {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Total solve attempts caught panicking and requeued for
    /// re-execution (0 on a fault-free run).
    pub fn requeued_clusters(&self) -> u64 {
        self.workers.iter().map(|w| w.requeued).sum()
    }

    /// Total spill records rerouted through the in-memory channel after a
    /// spill stream hard-failed (0 on a fault-free run).
    pub fn rerouted_spill_records(&self) -> u64 {
        self.workers.iter().map(|w| w.spill_rerouted).sum()
    }

    /// The executed assignment as sorted cluster-index lists per worker —
    /// directly comparable with [`DeploymentPlan::assignments`] (which the
    /// engine also keeps sorted-insertion-free; sort before comparing).
    pub fn executed_assignments(&self) -> Vec<Vec<usize>> {
        self.workers
            .iter()
            .map(|w| {
                let mut c = w.clusters.clone();
                c.sort_unstable();
                c
            })
            .collect()
    }

    /// The reduce-phase makespan: the busiest reducer's busy time.
    pub fn reduce_makespan(&self) -> Duration {
        self.reducers.iter().map(|r| r.busy).max().unwrap_or(Duration::ZERO)
    }

    /// Total busy time across all reduce shards.
    pub fn total_reduce_busy(&self) -> Duration {
        self.reducers.iter().map(|r| r.busy).sum()
    }

    /// Parallel speed-up of the reduce stage over one reducer
    /// (`Σ reduce busy / reduce makespan`; ≤ the shard count). The figure
    /// PR 1's single reducer pinned at 1.0.
    pub fn reduce_speedup(&self) -> f64 {
        let makespan = self.reduce_makespan().as_secs_f64();
        if makespan == 0.0 {
            return 1.0;
        }
        self.total_reduce_busy().as_secs_f64() / makespan
    }

    /// Shuffle skew: the busiest shard's entry count over the ideal
    /// per-shard share (1.0 = perfectly even partitioning).
    pub fn shuffle_skew(&self) -> f64 {
        if self.reducers.is_empty() || self.shuffle_entries == 0 {
            return 1.0;
        }
        let ideal = self.shuffle_entries as f64 / self.reducers.len() as f64;
        let max = self.reducers.iter().map(|r| r.entries).max().unwrap_or(0);
        max as f64 / ideal
    }

    /// Encoded bytes that went through spill files (0 when the spill mode
    /// is [`SpillMode::Off`]).
    pub fn total_spill_bytes(&self) -> u64 {
        self.reducers.iter().map(|r| r.spilled_bytes).sum()
    }

    /// Entries that went through spill files.
    pub fn total_spill_entries(&self) -> u64 {
        self.reducers.iter().map(|r| r.spilled_entries).sum()
    }

    /// Cross-checks the report's own accounting. The engine asserts this
    /// in debug builds; the test suites assert it on every configuration.
    ///
    /// A `patched` rebuild must have run no worker and no reducer and
    /// shuffled nothing; that is all there is to check. Invariants of a
    /// map-reduce build:
    /// * entries received by reducers = `shuffle_entries` sent by workers
    ///   — nothing lost or duplicated in the shuffle;
    /// * every scheduled cluster in `0..num_clusters` was executed by
    ///   exactly one worker, and the executed cost sums to the plan's
    ///   total (the scheduling invariant work stealing must preserve);
    /// * per-shard user counts sum to `num_users` (the partition is a
    ///   total, disjoint cover);
    /// * spilled entries/bytes agree between the write side (workers) and
    ///   the replay side (reducers);
    /// * [`SpillMode::Off`] implies zero spill traffic;
    /// * per-worker comparison counts (the solvers' returned totals) sum
    ///   to the report's `comparisons` (the oracle's atomic delta) — two
    ///   independently fed accounts of the paper's primary cost metric.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.patched {
            let stages = (self.workers.len(), self.reducers.len(), self.shuffle_entries);
            return match stages {
                (0, 0, 0) => Ok(()),
                _ => Err(format!(
                    "a patched rebuild ran (workers, reducers, shuffled entries) = {stages:?}"
                )),
            };
        }
        let sent: u64 = self.workers.iter().map(|w| w.shuffle_entries).sum();
        if sent != self.shuffle_entries {
            return Err(format!(
                "workers shipped {sent} entries, report says {}",
                self.shuffle_entries
            ));
        }
        let received: u64 = self.reducers.iter().map(|r| r.entries).sum();
        if received != self.shuffle_entries {
            return Err(format!(
                "reducers merged {received} entries, report says {}",
                self.shuffle_entries
            ));
        }
        let mut executed: Vec<usize> =
            self.workers.iter().flat_map(|w| w.clusters.iter().copied()).collect();
        executed.sort_unstable();
        if executed.len() != self.num_clusters || executed.iter().enumerate().any(|(i, &c)| i != c)
        {
            return Err(format!(
                "workers executed {} clusters, schedule has {} (each exactly once)",
                executed.len(),
                self.num_clusters
            ));
        }
        let solved: u64 = self.workers.iter().map(|w| w.solved_cost).sum();
        if solved != self.plan.total_cost() {
            return Err(format!(
                "workers solved cost {solved}, plan totals {}",
                self.plan.total_cost()
            ));
        }
        let users: usize = self.reducers.iter().map(|r| r.users).sum();
        if users != self.num_users {
            return Err(format!(
                "reduce partitions cover {users} users, dataset has {}",
                self.num_users
            ));
        }
        let written: (u64, u64) = self
            .workers
            .iter()
            .fold((0, 0), |(e, b), w| (e + w.spilled_entries, b + w.spilled_bytes));
        let replayed: (u64, u64) = self
            .reducers
            .iter()
            .fold((0, 0), |(e, b), r| (e + r.spilled_entries, b + r.spilled_bytes));
        if written != replayed {
            return Err(format!(
                "workers spilled {written:?} (entries, bytes), reducers replayed {replayed:?}"
            ));
        }
        if self.spill == SpillMode::Off && replayed != (0, 0) {
            return Err(format!("spill is Off but {replayed:?} (entries, bytes) were spilled"));
        }
        let worker_comparisons: u64 = self.workers.iter().map(|w| w.comparisons).sum();
        if worker_comparisons != self.comparisons {
            return Err(format!(
                "workers counted {worker_comparisons} comparisons, oracle counted {}",
                self.comparisons
            ));
        }
        Ok(())
    }

    /// Cross-checks the engine's synthesized telemetry spans against this
    /// report: `map.worker` / `reduce.shard` spans must carry exactly the
    /// busy times of [`RuntimeReport::total_busy`] /
    /// [`RuntimeReport::total_reduce_busy`] (the engine feeds both from
    /// the same `Duration` values, so equality is exact, not approximate),
    /// and the `comparisons` attributions must sum to the report's total.
    /// Debug-asserted by the engine on every build.
    pub fn check_telemetry(&self, records: &[SpanRecord]) -> Result<(), String> {
        let sum = |name: &str| -> u64 {
            records.iter().filter(|r| r.name == name).map(|r| r.dur_ns).sum()
        };
        let map_busy = sum("map.worker");
        if map_busy != self.total_busy().as_nanos() as u64 {
            return Err(format!(
                "map.worker spans carry {map_busy} ns, report total_busy is {} ns",
                self.total_busy().as_nanos()
            ));
        }
        let reduce_busy = sum("reduce.shard");
        if reduce_busy != self.total_reduce_busy().as_nanos() as u64 {
            return Err(format!(
                "reduce.shard spans carry {reduce_busy} ns, report total_reduce_busy is {} ns",
                self.total_reduce_busy().as_nanos()
            ));
        }
        let span_comparisons: u64 = records
            .iter()
            .filter(|r| r.name == "map.worker")
            .flat_map(|r| r.attrs.iter())
            .filter(|(k, _)| *k == "comparisons")
            .map(|(_, v)| v)
            .sum();
        if span_comparisons != self.comparisons {
            return Err(format!(
                "map.worker spans attribute {span_comparisons} comparisons, report says {}",
                self.comparisons
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal self-consistent report: 2 workers, 2 reduce shards,
    /// 10 users, 12 shuffled entries of which 5 (40 bytes) spilled.
    fn consistent_report() -> RuntimeReport {
        let worker = |worker, entries, spilled_entries, spilled_bytes| WorkerStats {
            worker,
            clusters: vec![worker],
            busy: Duration::from_millis(5),
            solved_cost: 10,
            shuffle_entries: entries,
            spilled_entries,
            spilled_bytes,
            stolen: 0,
            requeued: 0,
            spill_rerouted: 0,
            comparisons: 50,
        };
        let reducer = |shard, users, entries, spilled_entries, spilled_bytes| ReduceStats {
            shard,
            users,
            entries,
            spilled_entries,
            spilled_bytes,
            busy: Duration::from_millis(3),
        };
        RuntimeReport {
            patched: false,
            plan: DeploymentPlan {
                assignments: vec![vec![0], vec![1]],
                worker_costs: vec![10, 10],
                merge_traffic: 12,
            },
            workers: vec![worker(0, 7, 5, 40), worker(1, 5, 0, 0)],
            reducers: vec![reducer(0, 6, 8, 5, 40), reducer(1, 4, 4, 0, 0)],
            shuffle_entries: 12,
            spill: SpillMode::Always,
            spill_dir: Some(PathBuf::from("/tmp/cnc-spill-test")),
            num_clusters: 2,
            num_users: 10,
            splits: 0,
            comparisons: 100,
            clustering_wall: Duration::from_millis(1),
            map_reduce_wall: Duration::from_millis(8),
            total_wall: Duration::from_millis(9),
        }
    }

    #[test]
    fn consistent_report_passes_invariants() {
        consistent_report().check_invariants().unwrap();
    }

    #[test]
    fn reducer_entry_sum_must_equal_shuffle_entries() {
        let mut report = consistent_report();
        report.reducers[1].entries += 1;
        let err = report.check_invariants().unwrap_err();
        assert!(err.contains("reducers merged"), "{err}");
    }

    #[test]
    fn worker_sent_sum_must_equal_shuffle_entries() {
        let mut report = consistent_report();
        report.workers[0].shuffle_entries -= 1;
        let err = report.check_invariants().unwrap_err();
        assert!(err.contains("workers shipped"), "{err}");
    }

    #[test]
    fn per_shard_user_counts_must_sum_to_n() {
        let mut report = consistent_report();
        report.reducers[0].users += 1;
        let err = report.check_invariants().unwrap_err();
        assert!(err.contains("cover"), "{err}");
    }

    #[test]
    fn scheduling_invariant_catches_lost_and_duplicated_clusters() {
        let mut lost = consistent_report();
        lost.workers[1].clusters.clear();
        assert!(lost.check_invariants().unwrap_err().contains("executed"), "lost cluster");
        let mut dup = consistent_report();
        dup.workers[1].clusters = vec![0];
        assert!(dup.check_invariants().unwrap_err().contains("executed"), "duplicated cluster");
        let mut cost = consistent_report();
        cost.workers[0].solved_cost += 1;
        assert!(cost.check_invariants().unwrap_err().contains("plan totals"), "cost drift");
    }

    #[test]
    fn patched_reports_have_no_stages_to_balance() {
        // The shape a patched rebuild reports: no map worker, no reducer,
        // nothing shuffled — and only under the explicit mark.
        let mut report = consistent_report();
        report.patched = true;
        assert!(report.check_invariants().unwrap_err().contains("patched"), "stages ran");
        report.plan = DeploymentPlan {
            assignments: vec![vec![], vec![]],
            worker_costs: vec![0, 0],
            merge_traffic: 0,
        };
        report.workers.clear();
        report.reducers.clear();
        report.shuffle_entries = 0;
        report.check_invariants().unwrap();
        report.shuffle_entries = 1;
        assert!(report.check_invariants().unwrap_err().contains("patched"));
        // The same empty stats without the mark are a map-reduce build
        // that lost its clusters.
        report.shuffle_entries = 0;
        report.patched = false;
        assert!(report.check_invariants().unwrap_err().contains("executed"));
    }

    #[test]
    fn worker_comparison_sum_must_equal_oracle_count() {
        let mut report = consistent_report();
        report.workers[1].comparisons += 1;
        let err = report.check_invariants().unwrap_err();
        assert!(err.contains("workers counted"), "{err}");
    }

    /// Synthesized spans matching `consistent_report`: one `map.worker`
    /// per worker fed from its busy/comparisons, one `reduce.shard` per
    /// reducer fed from its busy.
    fn matching_spans(report: &RuntimeReport) -> Vec<SpanRecord> {
        let mut records = Vec::new();
        for w in &report.workers {
            records.push(SpanRecord {
                name: "map.worker",
                id: 1 + w.worker as u64,
                parent: 0,
                thread: 1 + w.worker as u64,
                start_ns: 0,
                dur_ns: w.busy.as_nanos() as u64,
                attrs: vec![("comparisons", w.comparisons)],
            });
        }
        for r in &report.reducers {
            records.push(SpanRecord {
                name: "reduce.shard",
                id: 100 + r.shard as u64,
                parent: 0,
                thread: 100 + r.shard as u64,
                start_ns: 0,
                dur_ns: r.busy.as_nanos() as u64,
                attrs: Vec::new(),
            });
        }
        records
    }

    #[test]
    fn telemetry_cross_check_demands_exact_busy_and_comparison_sums() {
        let report = consistent_report();
        let good = matching_spans(&report);
        report.check_telemetry(&good).unwrap();

        let mut slow = matching_spans(&report);
        slow[0].dur_ns += 1;
        assert!(report.check_telemetry(&slow).unwrap_err().contains("map.worker"));

        let mut reduce_drift = matching_spans(&report);
        let shard = reduce_drift.iter_mut().find(|r| r.name == "reduce.shard").unwrap();
        shard.dur_ns -= 1;
        assert!(report.check_telemetry(&reduce_drift).unwrap_err().contains("reduce.shard"));

        let mut uncounted = matching_spans(&report);
        uncounted[0].attrs.clear();
        assert!(report.check_telemetry(&uncounted).unwrap_err().contains("comparisons"));
    }

    #[test]
    fn spill_accounting_must_agree_between_sides() {
        let mut report = consistent_report();
        report.reducers[0].spilled_bytes += 8;
        assert!(report.check_invariants().is_err());
    }

    #[test]
    fn spill_off_forbids_spill_traffic() {
        let mut report = consistent_report();
        report.spill = SpillMode::Off;
        let err = report.check_invariants().unwrap_err();
        assert!(err.contains("spill is Off"), "{err}");
        // Clearing the spill figures on both sides makes Off legal again.
        for w in &mut report.workers {
            w.spilled_entries = 0;
            w.spilled_bytes = 0;
        }
        for r in &mut report.reducers {
            r.spilled_entries = 0;
            r.spilled_bytes = 0;
        }
        report.check_invariants().unwrap();
    }

    #[test]
    fn spill_totals_sum_over_shards() {
        let report = consistent_report();
        assert_eq!(report.total_spill_entries(), 5);
        assert_eq!(report.total_spill_bytes(), 40);
    }

    #[test]
    fn reduce_speedup_is_total_busy_over_makespan() {
        let mut report = consistent_report();
        report.reducers[0].busy = Duration::from_millis(6);
        report.reducers[1].busy = Duration::from_millis(3);
        assert!((report.reduce_speedup() - 1.5).abs() < 1e-9);
        assert_eq!(report.reduce_makespan(), Duration::from_millis(6));
    }

    #[test]
    fn reduce_speedup_of_an_idle_stage_is_one() {
        let mut report = consistent_report();
        for r in &mut report.reducers {
            r.busy = Duration::ZERO;
        }
        assert_eq!(report.reduce_speedup(), 1.0);
    }

    #[test]
    fn shuffle_skew_is_max_over_ideal() {
        let report = consistent_report();
        // Shares are 8 and 4 of 12 over 2 shards: ideal 6, max 8.
        assert!((report.shuffle_skew() - 8.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn shuffle_skew_of_an_empty_shuffle_is_one() {
        let mut report = consistent_report();
        report.shuffle_entries = 0;
        for side in &mut report.reducers {
            side.entries = 0;
        }
        assert_eq!(report.shuffle_skew(), 1.0);
    }
}
