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
    /// Wall-clock time this worker spent solving clusters and merging
    /// their partial lists into the shared arena or writing them to its
    /// spill file (the replay of that file runs after the worker is done,
    /// off this clock).
    pub busy: Duration,
    /// Predicted cost (Algorithm 2 similarity estimates) of the clusters
    /// this worker solved.
    pub solved_cost: u64,
    /// Entries `(user, neighbour, sim)` this worker handed to the merge,
    /// directly and through its spill file combined.
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
    /// Partial-list records that were due to spill but were merged
    /// directly because the worker's spill stream broke (0 unless a spill
    /// create/append hard-failed).
    pub spill_rerouted: u64,
    /// Similarity computations this worker's cluster solves performed —
    /// summed from the solver's *returned* counts, an accounting path
    /// independent of the oracle's atomic counter the report-level
    /// `comparisons` figure reads (their equality is an invariant).
    pub comparisons: u64,
}

/// The measured record of one map-stage build (`Runtime::execute`),
/// paired with the plan that drove it so predicted and measured figures
/// can be compared directly. Incremental builds run no map stage and
/// report in their `RebuildStats` instead.
#[derive(Clone, Debug)]
pub struct RuntimeReport {
    /// The static LPT plan the run started from (predicted makespan,
    /// per-worker costs and shuffle volume live here).
    pub plan: DeploymentPlan,
    /// Per-worker measurements.
    pub workers: Vec<WorkerStats>,
    /// Entries `(user, neighbour, sim)` the map stage handed to the merge:
    /// those merged directly plus those replayed from spill files.
    pub shuffle_entries: u64,
    /// The spill policy the run executed under.
    pub spill: SpillMode,
    /// The unique temp dir spill files were written to (`None` when the
    /// spill mode is [`SpillMode::Off`]). The dir is removed before the
    /// build returns, so this path records *where* the map stage spilled,
    /// not a live location.
    pub spill_dir: Option<PathBuf>,
    /// Number of clusters in the build's clustering — each *scheduled and
    /// executed* by a map worker.
    pub num_clusters: usize,
    /// Recursive splits performed during clustering.
    pub splits: usize,
    /// Similarity computations performed during the run.
    pub comparisons: u64,
    /// Wall-clock of the map stage, its merge and the spill replay.
    pub map_reduce_wall: Duration,
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

    /// Total clusters idle workers took from a peer's queue; the
    /// recovery lane's sweep of dead workers' leftovers counts too.
    pub fn stolen_clusters(&self) -> usize {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Total solve attempts caught panicking and requeued for
    /// re-execution (0 on a fault-free run).
    pub fn requeued_clusters(&self) -> u64 {
        self.workers.iter().map(|w| w.requeued).sum()
    }

    /// Total spill records merged directly after a spill stream
    /// hard-failed (0 on a fault-free run).
    pub fn rerouted_spill_records(&self) -> u64 {
        self.workers.iter().map(|w| w.spill_rerouted).sum()
    }

    /// Encoded bytes that went through spill files (0 when the spill mode
    /// is [`SpillMode::Off`]).
    pub fn total_spill_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.spilled_bytes).sum()
    }

    /// Entries that went through spill files.
    pub fn total_spill_entries(&self) -> u64 {
        self.workers.iter().map(|w| w.spilled_entries).sum()
    }

    /// Cross-checks the report's own accounting. The engine asserts this
    /// in debug builds; the test suites assert it on every configuration.
    ///
    /// Invariants:
    /// * entries the workers handed to the merge = `shuffle_entries`, the
    ///   entries merged directly plus those replayed from spill files —
    ///   nothing lost or duplicated on the way through a spill file;
    /// * every scheduled cluster in `0..num_clusters` was executed by
    ///   exactly one worker, and the executed cost sums to the plan's
    ///   total (the scheduling invariant work stealing must preserve);
    /// * [`SpillMode::Off`] implies zero spill traffic;
    /// * per-worker comparison counts (the solvers' returned totals) sum
    ///   to the report's `comparisons` (the oracle's atomic delta) — two
    ///   independently fed accounts of the paper's primary cost metric.
    pub fn check_invariants(&self) -> Result<(), String> {
        let sent: u64 = self.workers.iter().map(|w| w.shuffle_entries).sum();
        if sent != self.shuffle_entries {
            return Err(format!(
                "workers handed {sent} entries to the merge, the merge took {}",
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
        let spilled = (self.total_spill_entries(), self.total_spill_bytes());
        if self.spill == SpillMode::Off && spilled != (0, 0) {
            return Err(format!("spill is Off but {spilled:?} (entries, bytes) were spilled"));
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
    /// report: `map.worker` spans must carry exactly the busy times of
    /// [`RuntimeReport::total_busy`] (the engine feeds both from the same
    /// `Duration` values, so equality is exact, not approximate), and
    /// their `comparisons` attributions must sum to the report's total.
    /// Debug-asserted by the engine on every build.
    pub fn check_telemetry(&self, records: &[SpanRecord]) -> Result<(), String> {
        let workers = || records.iter().filter(|r| r.name == "map.worker");
        let map_busy: u64 = workers().map(|r| r.dur_ns).sum();
        if map_busy != self.total_busy().as_nanos() as u64 {
            return Err(format!(
                "map.worker spans carry {map_busy} ns, report total_busy is {} ns",
                self.total_busy().as_nanos()
            ));
        }
        let span_comparisons: u64 = workers()
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

    /// A minimal self-consistent report: 2 workers, 12 entries handed to
    /// the merge, of which 5 (40 bytes) went through a spill file.
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
        RuntimeReport {
            plan: DeploymentPlan {
                assignments: vec![vec![0], vec![1]],
                worker_costs: vec![10, 10],
                merge_traffic: 12,
            },
            workers: vec![worker(0, 7, 5, 40), worker(1, 5, 0, 0)],
            shuffle_entries: 12,
            spill: SpillMode::Always,
            spill_dir: Some(PathBuf::from("/tmp/cnc-spill-test")),
            num_clusters: 2,
            splits: 0,
            comparisons: 100,
            map_reduce_wall: Duration::from_millis(8),
        }
    }

    #[test]
    fn consistent_report_passes_invariants() {
        consistent_report().check_invariants().unwrap();
    }

    #[test]
    fn merged_entries_must_equal_the_entries_handed_over() {
        // A spill record lost between the write and the replay.
        let mut report = consistent_report();
        report.shuffle_entries -= 1;
        let err = report.check_invariants().unwrap_err();
        assert!(err.contains("workers handed"), "{err}");
    }

    #[test]
    fn worker_sent_sum_must_equal_shuffle_entries() {
        let mut report = consistent_report();
        report.workers[0].shuffle_entries -= 1;
        let err = report.check_invariants().unwrap_err();
        assert!(err.contains("workers handed"), "{err}");
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
    fn worker_comparison_sum_must_equal_oracle_count() {
        let mut report = consistent_report();
        report.workers[1].comparisons += 1;
        let err = report.check_invariants().unwrap_err();
        assert!(err.contains("workers counted"), "{err}");
    }

    /// Synthesized spans matching `consistent_report`: one `map.worker`
    /// per worker fed from its busy/comparisons.
    fn matching_spans(report: &RuntimeReport) -> Vec<SpanRecord> {
        report
            .workers
            .iter()
            .map(|w| SpanRecord {
                name: "map.worker",
                id: 1 + w.worker as u64,
                parent: 0,
                thread: 1 + w.worker as u64,
                start_ns: 0,
                dur_ns: w.busy.as_nanos() as u64,
                attrs: vec![("comparisons", w.comparisons)],
            })
            .collect()
    }

    #[test]
    fn telemetry_cross_check_demands_exact_busy_and_comparison_sums() {
        let report = consistent_report();
        let good = matching_spans(&report);
        report.check_telemetry(&good).unwrap();

        let mut slow = matching_spans(&report);
        slow[0].dur_ns += 1;
        assert!(report.check_telemetry(&slow).unwrap_err().contains("map.worker"));

        let mut uncounted = matching_spans(&report);
        uncounted[0].attrs.clear();
        assert!(report.check_telemetry(&uncounted).unwrap_err().contains("comparisons"));
    }

    #[test]
    fn spill_off_forbids_spill_traffic() {
        let mut report = consistent_report();
        report.spill = SpillMode::Off;
        let err = report.check_invariants().unwrap_err();
        assert!(err.contains("spill is Off"), "{err}");
        // Clearing the workers' spill figures makes Off legal again.
        for w in &mut report.workers {
            w.spilled_entries = 0;
            w.spilled_bytes = 0;
        }
        report.check_invariants().unwrap();
    }

    #[test]
    fn spill_totals_sum_over_workers() {
        let report = consistent_report();
        assert_eq!(report.total_spill_entries(), 5);
        assert_eq!(report.total_spill_bytes(), 40);
    }
}
