//! Configuration of the sharded execution engine.

use cnc_threadpool::effective_threads;

/// Whether the map stage merges its partial lists straight into the shared
/// neighbour arena or appends them to the build's spill stream first.
///
/// The merged graph is identical either way — the spill codec is lossless
/// and Algorithm 3's merge is order-independent (asserted by
/// `tests/shuffle.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpillMode {
    /// Every partial list is merged in memory as soon as it is solved (the
    /// default).
    #[default]
    Off,
    /// Every partial list is appended to the build's one spill stream,
    /// which is replayed into the arena once every cluster is solved.
    /// Models a map stage with no memory budget at all.
    Always,
}

/// All knobs of a [`Runtime`](crate::Runtime).
#[derive(Clone, Copy, Debug, Default)]
pub struct RuntimeConfig {
    /// Number of worker threads `W`; 0 = all available hardware threads.
    pub workers: usize,
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
    fn default_never_spills() {
        let c = RuntimeConfig::default();
        assert_eq!(c.spill, SpillMode::Off);
        assert!(c.effective_workers() >= 1);
    }

    #[test]
    fn with_workers_pins_the_shard_count() {
        assert_eq!(RuntimeConfig::with_workers(4).effective_workers(), 4);
    }
}
