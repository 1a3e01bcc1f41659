//! Beam-search configuration and the visited-set scratch machinery.

/// Parameters of a greedy beam search over the KNN graph.
#[derive(Clone, Copy, Debug)]
pub struct BeamSearchConfig {
    /// Beam width (candidates kept under consideration). Larger = better
    /// recall, more similarity computations. Must be ≥ the query `k`. Also
    /// the most seeds a search bound to an entry index takes from the
    /// users who share two or more of the smaller half of its routed
    /// clusters.
    pub beam_width: usize,
    /// The floor the seeds are topped up to: first with the next-ranked
    /// members of the smaller half of the routed clusters (users who share
    /// only one of them, once those sharing two or more are used up), then
    /// with **random** users — all of the seeds when there is no index,
    /// the profile is empty, or it lands in buckets Step 1 never saw.
    pub entry_points: usize,
    /// Hard cap on similarity computations per query, seeds included
    /// (0 = unlimited); protects latency SLOs on adversarial queries.
    pub max_comparisons: usize,
}

impl Default for BeamSearchConfig {
    fn default() -> Self {
        BeamSearchConfig { beam_width: 32, entry_points: 4, max_comparisons: 0 }
    }
}

impl BeamSearchConfig {
    /// The most seeds one search scores before `max_comparisons` cuts in:
    /// `beam_width` users who share two or more routed clusters, or the
    /// `entry_points` floor if that is larger.
    pub fn max_seeds(&self) -> usize {
        self.beam_width.max(self.entry_points)
    }

    /// Validates the parameters against a query `k`.
    pub fn validate(&self, k: usize) -> Result<(), String> {
        if self.beam_width == 0 {
            return Err("beam_width must be positive".into());
        }
        if self.beam_width < k {
            return Err(format!("beam_width {} must be ≥ k {k}", self.beam_width));
        }
        if self.entry_points == 0 {
            return Err("entry_points must be positive".into());
        }
        Ok(())
    }
}

/// An epoch-stamped visited set: clearing between queries is O(1) (bump the
/// epoch) instead of O(n) (zero the array) — queries are latency-sensitive.
#[derive(Clone, Debug)]
pub struct VisitedSet {
    stamps: Vec<u32>,
    epoch: u32,
}

impl VisitedSet {
    /// Creates a set over `n` users.
    pub fn new(n: usize) -> Self {
        VisitedSet { stamps: vec![0; n], epoch: 0 }
    }

    /// Grows the set to cover `n` users; existing marks are preserved and
    /// the new slots read as unvisited (slot 0 is never a live epoch — the
    /// first [`VisitedSet::clear`] bumps it to 1). Lets one searcher
    /// outlive epoch swaps to larger graphs in `cnc-serve`.
    pub fn grow(&mut self, n: usize) {
        if n > self.stamps.len() {
            self.stamps.resize(n, 0);
        }
    }

    /// Starts a new query: invalidates all marks in O(1).
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Once every 2^32 queries the epoch wraps: hard reset.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `user`; returns `true` if it was not yet visited this query.
    #[inline]
    pub fn insert(&mut self, user: u32) -> bool {
        let slot = &mut self.stamps[user as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// True if `user` was marked during the current query.
    #[inline]
    pub fn contains(&self, user: u32) -> bool {
        self.stamps[user as usize] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_for_small_k() {
        BeamSearchConfig::default().validate(10).unwrap();
    }

    #[test]
    fn beam_narrower_than_k_is_rejected() {
        let config = BeamSearchConfig { beam_width: 5, ..Default::default() };
        assert!(config.validate(10).is_err());
    }

    #[test]
    fn zero_entry_points_rejected() {
        let config = BeamSearchConfig { entry_points: 0, ..Default::default() };
        assert!(config.validate(1).is_err());
    }

    #[test]
    fn visited_set_tracks_membership_per_epoch() {
        let mut set = VisitedSet::new(10);
        set.clear();
        assert!(set.insert(3));
        assert!(!set.insert(3), "second insert must report already-visited");
        assert!(set.contains(3));
        assert!(!set.contains(4));
        set.clear();
        assert!(!set.contains(3), "clear must invalidate previous marks");
        assert!(set.insert(3));
    }

    #[test]
    fn grow_preserves_marks_and_adds_unvisited_slots() {
        let mut set = VisitedSet::new(2);
        set.clear();
        set.insert(1);
        set.grow(5);
        assert!(set.contains(1), "existing marks must survive the grow");
        assert!(!set.contains(4), "new slots must start unvisited");
        assert!(set.insert(4));
        set.grow(3); // shrinking requests are no-ops
        assert!(set.contains(4));
    }

    #[test]
    fn visited_set_survives_epoch_wraparound() {
        let mut set = VisitedSet::new(4);
        // Force the wrap by setting the epoch near the limit.
        set.epoch = u32::MAX - 1;
        set.clear(); // → u32::MAX
        set.insert(1);
        set.clear(); // wraps → hard reset to epoch 1
        assert!(!set.contains(1));
        assert!(set.insert(1));
    }
}
