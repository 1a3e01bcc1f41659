//! FastRandomHash (paper §II-D).
//!
//! The scheme first projects each item `i ∈ I` onto a hash value
//! `h(i) ∈ ⟦1, b⟧` with a generative hash function, then defines the hash of
//! a user as the **minimum** over her profile: `H(u) = min_{i ∈ P_u} h(i)`
//! (Eq. (3)). The bounded range `⟦1, b⟧` (b = 4096 by default, vs the item
//! universe of up to 203 030 for MinHash) is the key design choice: it caps
//! the number of clusters, avoiding the fragmentation that cripples LSH on
//! sparse datasets — at the price of collisions and unbalanced clusters,
//! which recursive splitting absorbs.
//!
//! For the splitting mechanism, `H\η(u) = min_{i ∈ P_u, h(i) > η} h(i)`
//! re-hashes a user while ignoring every item hash at or below the cluster
//! index `η` being split.

use cnc_dataset::ItemId;
use cnc_similarity::SeededHash;

/// One FastRandomHash function: a generative item hash `h : I → ⟦1, b⟧`
/// plus the min-aggregation over profiles.
#[derive(Clone, Copy, Debug)]
pub struct FastRandomHash {
    hash: SeededHash,
    b: u32,
}

impl FastRandomHash {
    /// Creates a FastRandomHash with `b` clusters from `seed`.
    ///
    /// # Panics
    /// Panics if `b == 0`.
    pub fn new(seed: u64, b: u32) -> Self {
        assert!(b >= 1, "cluster count b must be at least 1");
        FastRandomHash { hash: SeededHash::new(seed), b }
    }

    /// Builds the `t` independent functions of a C² run from a root seed.
    pub fn family(root_seed: u64, t: usize, b: u32) -> Vec<FastRandomHash> {
        cnc_similarity::hash::family(root_seed, t)
            .into_iter()
            .map(|hash| FastRandomHash { hash, b })
            .collect()
    }

    /// The number of clusters `b` of this function's configuration.
    #[inline]
    pub fn b(&self) -> u32 {
        self.b
    }

    /// The seed identifying the generative item hash within its family.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.hash.seed()
    }

    /// The generative item hash `h(i) ∈ ⟦1, b⟧`.
    #[inline(always)]
    pub fn item_hash(&self, item: ItemId) -> u32 {
        self.hash.hash_range(item, self.b)
    }

    /// `H(u) = min_{i ∈ P_u} h(i)` (Eq. (3)); `None` for an empty profile.
    #[inline]
    pub fn user_hash(&self, profile: &[ItemId]) -> Option<u32> {
        profile.iter().map(|&i| self.item_hash(i)).min()
    }

    /// `H\η(u) = min_{i ∈ P_u, h(i) > η} h(i)` — the splitting hash that
    /// ignores item hashes at or below the split cluster's index `η`.
    /// `None` when no item hashes above `η` (such users stay in the split
    /// cluster, §II-D).
    #[inline]
    pub fn user_hash_excluding(&self, profile: &[ItemId], eta: u32) -> Option<u32> {
        profile.iter().map(|&i| self.item_hash(i)).filter(|&h| h > eta).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_similarity::Jaccard;

    #[test]
    fn item_hash_is_in_one_to_b() {
        let frh = FastRandomHash::new(1, 16);
        for item in 0..1000u32 {
            let h = frh.item_hash(item);
            assert!((1..=16).contains(&h));
        }
    }

    #[test]
    fn user_hash_is_the_min_item_hash() {
        let frh = FastRandomHash::new(2, 64);
        let profile = [3u32, 99, 1024, 5000];
        let min = profile.iter().map(|&i| frh.item_hash(i)).min().unwrap();
        assert_eq!(frh.user_hash(&profile), Some(min));
    }

    #[test]
    fn empty_profile_has_no_hash() {
        let frh = FastRandomHash::new(3, 8);
        assert_eq!(frh.user_hash(&[]), None);
    }

    #[test]
    fn shared_items_can_align_users_paper_example() {
        // §II-D: two users sharing an item have non-zero probability of the
        // same hash. With a single shared item that achieves both minima,
        // equality is guaranteed.
        let frh = FastRandomHash::new(4, 4096);
        // Find an item with a very low hash to play the role of i3.
        let shared = (0..100_000u32).min_by_key(|&i| frh.item_hash(i)).unwrap();
        let pu = [shared, 11, 22];
        let pv = [shared, 33, 44];
        assert_eq!(frh.user_hash(&pu), frh.user_hash(&pv));
    }

    #[test]
    fn excluding_hash_only_keeps_values_above_eta() {
        let frh = FastRandomHash::new(5, 16);
        let profile: Vec<u32> = (0..200).collect();
        let full = frh.user_hash(&profile).unwrap();
        let after = frh.user_hash_excluding(&profile, full);
        if let Some(h) = after {
            assert!(h > full);
        }
        // Excluding everything yields None.
        assert_eq!(frh.user_hash_excluding(&profile, 16), None);
    }

    #[test]
    fn excluding_zero_equals_plain_hash() {
        let frh = FastRandomHash::new(6, 32);
        let profile = [7u32, 70, 700];
        assert_eq!(frh.user_hash_excluding(&profile, 0), frh.user_hash(&profile));
    }

    #[test]
    fn single_item_user_loses_hash_after_exclusion() {
        // "Users who have a single item (for whom H\η is undefined) …
        // remain in C" — the single item's hash is necessarily ≤ η when the
        // user sits in cluster η.
        let frh = FastRandomHash::new(7, 64);
        let item = [42u32];
        let eta = frh.user_hash(&item).unwrap();
        assert_eq!(frh.user_hash_excluding(&item, eta), None);
    }

    #[test]
    fn family_produces_distinct_configurations() {
        let fam = FastRandomHash::family(9, 8, 4096);
        assert_eq!(fam.len(), 8);
        let hashes: Vec<u32> = fam.iter().map(|f| f.item_hash(12345)).collect();
        let distinct: std::collections::HashSet<_> = hashes.iter().collect();
        assert!(distinct.len() > 1, "all functions hashed the item identically");
    }

    #[test]
    fn collision_probability_tracks_jaccard_theorem1_sanity() {
        // Statistical sanity check of Theorem 1 (precise bounds are
        // exercised in `theory`): for moderately similar users,
        // P[H(u1) = H(u2)] over the hash family stays near J(u1, u2).
        let pu: Vec<u32> = (0..64).collect();
        let pv: Vec<u32> = (32..96).collect(); // J = 32/96 = 1/3
        let j = Jaccard::similarity(&pu, &pv);
        let trials = 3000u64;
        let equal = (0..trials)
            .filter(|&s| {
                let frh = FastRandomHash::new(s, 4096);
                frh.user_hash(&pu) == frh.user_hash(&pv)
            })
            .count();
        let p = equal as f64 / trials as f64;
        // ℓ = 96, b = 4096 → collision slack ≈ ℓ/2b ≈ 0.012; allow noise.
        assert!((p - j).abs() < 0.05, "P = {p:.3} strays from J = {j:.3}");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_b_panics() {
        FastRandomHash::new(1, 0);
    }
}
