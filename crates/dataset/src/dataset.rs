//! CSR storage of user profiles.
//!
//! A [`Dataset`] stores every user profile contiguously: `items` holds the
//! concatenated, per-user-sorted item ids, and `offsets[u]..offsets[u + 1]`
//! delimits user `u`'s profile. Sorted profiles make the exact Jaccard
//! similarity a linear merge and give deterministic iteration order.

use crate::storage::Storage;
use std::fmt;

/// Identifier of a user, dense in `0..num_users`.
pub type UserId = u32;

/// Identifier of an item, dense in `0..num_items`.
pub type ItemId = u32;

/// An immutable users × items dataset in CSR form.
///
/// Invariants (enforced by [`DatasetBuilder`] and checked in debug builds):
/// * `offsets` has length `num_users + 1`, is non-decreasing, starts at 0 and
///   ends at `items.len()`;
/// * each profile slice is strictly increasing (sorted, no duplicates);
/// * every item id is `< num_items`.
///
/// The two arrays live behind [`Storage`], so a dataset can either own
/// its CSR (every construction path here) or borrow it from a mapped
/// snapshot (`cnc-serve`'s zero-copy adoption) with identical behavior.
#[derive(Clone, PartialEq, Eq)]
pub struct Dataset {
    offsets: Storage<usize>,
    items: Storage<ItemId>,
    num_items: u32,
}

impl Dataset {
    /// Builds a dataset directly from per-user profiles.
    ///
    /// Profiles are sorted and deduplicated; `num_items` is taken as one past
    /// the largest item id (or the provided floor, whichever is larger), so
    /// that item-indexed arrays can always be allocated densely.
    pub fn from_profiles(profiles: Vec<Vec<ItemId>>, min_num_items: u32) -> Self {
        let mut builder = DatasetBuilder::with_capacity(profiles.len());
        for profile in profiles {
            builder.push_profile(profile);
        }
        builder.build_with_min_items(min_num_items)
    }

    /// Reassembles a dataset from its raw CSR parts — the `cnc-serve`
    /// snapshot loader's inverse of reading profiles back out. The parts
    /// come from an untrusted file, so every invariant of the struct-level
    /// contract is *checked* (via [`Dataset::validate`]) instead of
    /// debug-asserted; on success the dataset is bit-identical to the one
    /// the parts were read from.
    pub fn from_csr(
        offsets: Vec<usize>,
        items: Vec<ItemId>,
        num_items: u32,
    ) -> Result<Dataset, String> {
        Self::from_csr_storage(offsets.into(), items.into(), num_items)
    }

    /// [`Dataset::from_csr`] over [`Storage`]-backed arrays — the entry
    /// point the mmap adoption path uses to build a dataset that
    /// *borrows* its CSR from a mapped snapshot. Validated identically.
    pub fn from_csr_storage(
        offsets: Storage<usize>,
        items: Storage<ItemId>,
        num_items: u32,
    ) -> Result<Dataset, String> {
        if offsets.is_empty() {
            return Err("offsets must hold at least the leading 0".into());
        }
        let ds = Dataset { offsets, items, num_items };
        ds.validate()?;
        Ok(ds)
    }

    /// True when the CSR is reference-counted — borrowed from a mapped
    /// snapshot or frozen by [`Dataset::into_shared`] — so a clone is O(1)
    /// (see [`Storage::is_shared`]).
    pub fn is_shared(&self) -> bool {
        self.offsets.is_shared() || self.items.is_shared()
    }

    /// Freezes the CSR behind reference counts, moving both arrays (no
    /// profile is copied), so every clone of the result is O(1) — how a
    /// published serving epoch lets the writer that grows the next one
    /// read its profiles in place. A shared dataset is returned as is.
    pub fn into_shared(self) -> Dataset {
        Dataset {
            offsets: self.offsets.into_shared(),
            items: self.items.into_shared(),
            num_items: self.num_items,
        }
    }

    /// [`Dataset::into_shared`], first giving the owned CSR arrays room for
    /// at least `users` more profiles holding `ratings` items in all, so
    /// [`Dataset::appended`] extends the dataset in place (see
    /// [`Storage::into_growable`]). Only for a dataset that will be
    /// appended to: making room may move an array.
    pub fn into_growable(self, users: usize, ratings: usize) -> Dataset {
        Dataset {
            offsets: self.offsets.into_growable(users),
            items: self.items.into_growable(ratings),
            num_items: self.num_items,
        }
    }

    /// This dataset's profiles followed by the ones `tail` holds, as one
    /// shared dataset; `num_items` keeps this dataset's universe as a
    /// floor. Each CSR array is written in place past the end of this
    /// one's when its buffer has room and no other append claimed it
    /// first ([`Storage::appended`]): O(`tail`), and the result shares
    /// this dataset's allocations. Otherwise that array is copied once,
    /// with room for the appends after it. `self` is unchanged either way.
    pub fn appended(&self, tail: &DatasetBuilder) -> Dataset {
        let shift = self.items.len();
        let offsets: Vec<usize> = tail.offsets.iter().skip(1).map(|&at| at + shift).collect();
        let top = tail.max_item.map_or(0, |m| m + 1);
        Dataset {
            offsets: self.offsets.appended(&offsets),
            items: self.items.appended(&tail.items),
            num_items: self.num_items.max(top),
        }
    }

    /// The raw offset array (`num_users + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated item array.
    #[inline]
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Number of users `|U|`.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of items `|I|` (the dimensionality of the dataset).
    #[inline]
    pub fn num_items(&self) -> usize {
        self.num_items as usize
    }

    /// Total number of (binarized) ratings, i.e. `Σ_u |P_u|`.
    #[inline]
    pub fn num_ratings(&self) -> usize {
        self.items.len()
    }

    /// The profile `P_u` of user `u`: a strictly increasing slice of item ids.
    #[inline]
    pub fn profile(&self, user: UserId) -> &[ItemId] {
        let u = user as usize;
        &self.items[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Size of user `u`'s profile, `|P_u|`.
    #[inline]
    pub fn profile_len(&self, user: UserId) -> usize {
        let u = user as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Iterates over `(user, profile)` pairs in user-id order.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &[ItemId])> + '_ {
        (0..self.num_users() as u32).map(move |u| (u, self.profile(u)))
    }

    /// All user ids, `0..num_users`.
    pub fn users(&self) -> std::ops::Range<UserId> {
        0..self.num_users() as UserId
    }

    /// Counts, for every item, in how many profiles it appears (its degree).
    ///
    /// The average of this vector is the `|P_i|` column of the paper's
    /// Table I; its skew is what FastRandomHash's recursive splitting exists
    /// to absorb.
    pub fn item_frequencies(&self) -> Vec<u32> {
        let mut freq = vec![0u32; self.num_items()];
        for &item in self.items.iter() {
            freq[item as usize] += 1;
        }
        freq
    }

    /// Density of the user × item matrix: `num_ratings / (|U| · |I|)`.
    pub fn density(&self) -> f64 {
        if self.num_users() == 0 || self.num_items() == 0 {
            return 0.0;
        }
        self.num_ratings() as f64 / (self.num_users() as f64 * self.num_items() as f64)
    }

    /// Checks the CSR invariants; used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.first() != Some(&0) {
            return Err("offsets must start at 0".into());
        }
        if self.offsets.last() != Some(&self.items.len()) {
            return Err("offsets must end at items.len()".into());
        }
        for w in self.offsets.windows(2) {
            if w[0] > w[1] {
                return Err("offsets must be non-decreasing".into());
            }
        }
        for (u, profile) in self.iter() {
            for pair in profile.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(format!("profile of user {u} is not strictly increasing"));
                }
            }
            if let Some(&last) = profile.last() {
                if last >= self.num_items {
                    return Err(format!("user {u} references item {last} >= num_items"));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dataset")
            .field("users", &self.num_users())
            .field("items", &self.num_items())
            .field("ratings", &self.num_ratings())
            .finish()
    }
}

/// Incremental builder for [`Dataset`].
#[derive(Default)]
pub struct DatasetBuilder {
    offsets: Vec<usize>,
    items: Vec<ItemId>,
    max_item: Option<ItemId>,
}

impl DatasetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates a builder pre-sized for `users` profiles.
    pub fn with_capacity(users: usize) -> Self {
        let mut offsets = Vec::with_capacity(users + 1);
        offsets.push(0);
        DatasetBuilder { offsets, items: Vec::new(), max_item: None }
    }

    /// Appends one user's profile, sorting and deduplicating it.
    pub fn push_profile(&mut self, mut profile: Vec<ItemId>) {
        profile.sort_unstable();
        profile.dedup();
        self.push_sorted_profile(&profile);
    }

    /// Appends a profile already known to be strictly increasing.
    ///
    /// # Panics
    /// In debug builds, panics if the slice is not strictly increasing.
    pub fn push_sorted_profile(&mut self, profile: &[ItemId]) {
        debug_assert!(
            profile.windows(2).all(|w| w[0] < w[1]),
            "profile must be strictly increasing"
        );
        if let Some(&last) = profile.last() {
            self.max_item = Some(self.max_item.map_or(last, |m| m.max(last)));
        }
        self.items.extend_from_slice(profile);
        self.offsets.push(self.items.len());
    }

    /// Number of profiles pushed so far.
    pub fn num_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The `user`-th profile pushed (0-based).
    pub fn profile(&self, user: usize) -> &[ItemId] {
        &self.items[self.offsets[user]..self.offsets[user + 1]]
    }

    /// Finalizes the dataset; `num_items` is one past the largest item seen.
    pub fn build(self) -> Dataset {
        self.build_with_min_items(0)
    }

    /// Finalizes with a floor on `num_items` (useful when the item universe
    /// is known to be larger than what the sampled profiles reference).
    pub fn build_with_min_items(self, min_num_items: u32) -> Dataset {
        let num_items = self.max_item.map(|m| m + 1).unwrap_or(0).max(min_num_items);
        let ds = Dataset { offsets: self.offsets.into(), items: self.items.into(), num_items };
        debug_assert!(ds.validate().is_ok());
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::from_profiles(vec![vec![0, 1, 2], vec![2, 3, 4], vec![], vec![4]], 0)
    }

    #[test]
    fn csr_layout_and_accessors() {
        let ds = toy();
        assert_eq!(ds.num_users(), 4);
        assert_eq!(ds.num_items(), 5);
        assert_eq!(ds.num_ratings(), 7);
        assert_eq!(ds.profile(0), &[0, 1, 2]);
        assert_eq!(ds.profile(1), &[2, 3, 4]);
        assert_eq!(ds.profile(2), &[] as &[ItemId]);
        assert_eq!(ds.profile(3), &[4]);
        assert_eq!(ds.profile_len(1), 3);
        ds.validate().unwrap();
    }

    #[test]
    fn profiles_are_sorted_and_deduplicated() {
        let ds = Dataset::from_profiles(vec![vec![5, 1, 3, 1, 5]], 0);
        assert_eq!(ds.profile(0), &[1, 3, 5]);
    }

    #[test]
    fn item_frequencies_count_degrees() {
        let ds = toy();
        assert_eq!(ds.item_frequencies(), vec![1, 1, 2, 1, 2]);
    }

    #[test]
    fn density_matches_definition() {
        let ds = toy();
        let expected = 7.0 / (4.0 * 5.0);
        assert!((ds.density() - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_is_consistent() {
        let ds = Dataset::from_profiles(vec![], 0);
        assert_eq!(ds.num_users(), 0);
        assert_eq!(ds.num_items(), 0);
        assert_eq!(ds.density(), 0.0);
        ds.validate().unwrap();
    }

    #[test]
    fn min_items_floor_is_respected() {
        let ds = Dataset::from_profiles(vec![vec![1]], 100);
        assert_eq!(ds.num_items(), 100);
    }

    #[test]
    fn iter_visits_users_in_order() {
        let ds = toy();
        let collected: Vec<u32> = ds.iter().map(|(u, _)| u).collect();
        assert_eq!(collected, vec![0, 1, 2, 3]);
    }

    #[test]
    fn from_csr_round_trips_and_validates() {
        let ds = toy();
        let offsets: Vec<usize> = std::iter::once(0)
            .chain(ds.iter().scan(0, |at, (_, p)| {
                *at += p.len();
                Some(*at)
            }))
            .collect();
        let items: Vec<ItemId> = ds.iter().flat_map(|(_, p)| p.iter().copied()).collect();
        let back = Dataset::from_csr(offsets, items, ds.num_items() as u32).unwrap();
        assert_eq!(back, ds);

        assert!(Dataset::from_csr(vec![], vec![], 0).is_err(), "empty offsets");
        assert!(Dataset::from_csr(vec![0, 2], vec![5], 10).is_err(), "offsets past items");
        assert!(Dataset::from_csr(vec![0, 2], vec![5, 5], 10).is_err(), "non-increasing profile");
        assert!(Dataset::from_csr(vec![0, 1], vec![5], 3).is_err(), "item beyond num_items");
        assert!(Dataset::from_csr(vec![0, 1], vec![5], 6).is_ok());
    }

    #[test]
    fn into_shared_moves_the_csr_and_clones_in_place() {
        let ds = toy();
        let items = ds.items().as_ptr();
        let shared = ds.clone().into_shared();
        assert!(!ds.is_shared() && shared.is_shared());
        assert_eq!(shared, ds);
        assert!(std::ptr::eq(shared.clone().items(), shared.items()), "clones share items");
        assert_eq!(ds.into_shared().items().as_ptr(), items, "freezing copies nothing");
    }

    #[test]
    fn appended_adds_the_tail_profiles_and_keeps_the_item_floor() {
        let base = Dataset::from_profiles(vec![vec![0, 3], vec![], vec![2]], 9);
        let mut tail = DatasetBuilder::new();
        tail.push_sorted_profile(&[1]);
        tail.push_sorted_profile(&[]);
        tail.push_sorted_profile(&[4, 5]);
        let grown = base.appended(&tail);
        assert_eq!(grown.num_users(), 6);
        assert_eq!(grown.num_items(), 9, "the base's universe is a floor");
        let expect = Dataset::from_profiles(
            vec![vec![0, 3], vec![], vec![2], vec![1], vec![], vec![4, 5]],
            9,
        );
        assert_eq!(grown, expect);
        grown.validate().unwrap();
        tail.push_sorted_profile(&[12]);
        assert_eq!(base.appended(&tail).num_items(), 13, "the tail can widen the universe");
        assert_eq!(base.appended(&DatasetBuilder::new()), base, "an empty tail adds nothing");
    }

    #[test]
    fn a_growable_dataset_appends_in_place_and_keeps_its_views() {
        let base = toy().into_growable(1, 2);
        let mut tail = DatasetBuilder::new();
        tail.push_sorted_profile(&[1, 4]);
        let grown = base.appended(&tail);
        assert_eq!(grown.items().as_ptr(), base.items().as_ptr(), "items grow in place");
        assert_eq!(grown.offsets().as_ptr(), base.offsets().as_ptr(), "offsets grow in place");
        assert_eq!(base, toy(), "the base view reads what it read");
        assert_eq!(grown.profile(4), &[1, 4]);
        let copied = base.appended(&tail);
        assert_ne!(copied.items().as_ptr(), base.items().as_ptr(), "the slots are taken");
        assert_eq!(copied, grown);
    }

    #[test]
    fn validate_rejects_corrupt_offsets() {
        let mut ds = toy();
        ds.offsets.to_mut()[1] = 100;
        assert!(ds.validate().is_err());
    }
}
