//! Configuration of the sharded execution engine.

use cnc_threadpool::effective_threads;

/// What an idle worker does when its own queue runs dry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StealPolicy {
    /// Never steal: execute exactly the static LPT assignment. Measured
    /// per-worker cluster sets then match the [`DeploymentPlan`] one-to-one,
    /// which is what the plan-validation experiments use.
    ///
    /// [`DeploymentPlan`]: cnc_core::DeploymentPlan
    Disabled,
    /// Steal **half** the remaining queue of the peer with the most
    /// predicted work remaining (the victim keeps its larger-cost front
    /// half) — absorbs stragglers the static plan cannot anticipate while
    /// amortizing the steal synchronization over a batch (the default;
    /// PR-2's policy took one cluster per steal).
    #[default]
    MostLoaded,
}

/// Whether a map worker merges its partial lists straight into the shared
/// neighbour arena or appends them to its spill file first.
///
/// In every mode the decision is taken independently per map worker, and
/// the merged graph is identical — the spill codec is lossless and
/// Algorithm 3's merge is order-independent (asserted by
/// `tests/shuffle.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpillMode {
    /// Every partial list is merged in memory as soon as it is solved (the
    /// default).
    #[default]
    Off,
    /// A worker's stream switches to its spill file once it has handed
    /// over more than this many encoded bytes; `Auto(0)` spills
    /// everything, `Auto(u64::MAX)` effectively never spills.
    Auto(u64),
    /// Every partial list is spilled, and merged when its worker's spill
    /// file is replayed once that worker is done. Models a map stage with
    /// no memory budget at all.
    Always,
}

/// All knobs of a [`Runtime`](crate::Runtime).
#[derive(Clone, Copy, Debug, Default)]
pub struct RuntimeConfig {
    /// Number of worker shards `W`; 0 = all available hardware threads.
    pub workers: usize,
    /// Work-stealing policy for straggler clusters.
    pub steal: StealPolicy,
    /// Spill policy for the map stage's partial lists.
    pub spill: SpillMode,
}

impl RuntimeConfig {
    /// A configuration with `workers` shards and defaults elsewhere.
    pub fn with_workers(workers: usize) -> Self {
        RuntimeConfig { workers, ..RuntimeConfig::default() }
    }

    /// The resolved worker count (0 = available parallelism).
    pub fn effective_workers(&self) -> usize {
        effective_threads(self.workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_steals_and_never_spills() {
        let c = RuntimeConfig::default();
        assert_eq!(c.steal, StealPolicy::MostLoaded);
        assert_eq!(c.spill, SpillMode::Off);
        assert!(c.effective_workers() >= 1);
    }

    #[test]
    fn with_workers_pins_the_shard_count() {
        assert_eq!(RuntimeConfig::with_workers(4).effective_workers(), 4);
    }
}
