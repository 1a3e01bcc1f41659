//! MinHash: min-wise hashing over the item universe.
//!
//! Classic MinHash \[17\] applies a (pseudo-)random permutation `π` of the
//! item universe and keeps `min_{i ∈ P_u} π(i)`. Two users agree on this
//! minimum with probability exactly their Jaccard similarity. The paper uses
//! MinHash in two roles, both reproduced here:
//!
//! * the **LSH baseline** (§IV-B3): each of `t` MinHash functions buckets
//!   users by their min value — one potential bucket per item, which is what
//!   fragments sparse, high-dimensional datasets;
//! * the **C²/MinHash ablation** (Table IV): C² with its FastRandomHash
//!   replaced by MinHash (t × m clusters, no recursive splitting).
//!
//! The "permutation" is realized as a seeded 64-bit hash (standard practice;
//! collisions in 64 bits are negligible at these scales).

use crate::hash::SeededHash;
use cnc_dataset::ItemId;

/// One MinHash function (a seeded stand-in for a min-wise independent
/// permutation of the item universe).
#[derive(Clone, Copy, Debug)]
pub struct MinHasher {
    hash: SeededHash,
}

impl MinHasher {
    /// Creates the MinHash function identified by `seed`.
    pub fn new(seed: u64) -> Self {
        MinHasher { hash: SeededHash::new(seed) }
    }

    /// Builds a bank of `t` independent MinHash functions.
    pub fn family(root_seed: u64, t: usize) -> Vec<MinHasher> {
        crate::hash::family(root_seed, t).into_iter().map(|hash| MinHasher { hash }).collect()
    }

    /// The min-wise value of a profile: `min_{i ∈ P} π(i)`, or `None` for an
    /// empty profile.
    #[inline]
    pub fn min_value(&self, profile: &[ItemId]) -> Option<u64> {
        profile.iter().map(|&i| self.hash.hash_u32(i)).min()
    }

    /// The *bucket* of a profile under this function: the item achieving the
    /// minimum. Using the argmin item (rather than the 64-bit hash) matches
    /// the paper's description of MinHash creating "one cluster per item".
    #[inline]
    pub fn bucket(&self, profile: &[ItemId]) -> Option<ItemId> {
        profile.iter().copied().min_by_key(|&i| self.hash.hash_u32(i))
    }
}

/// A MinHash signature: one min value per function, enabling Jaccard
/// estimation as the fraction of agreeing coordinates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinHashSignature(pub Vec<u64>);

impl MinHashSignature {
    /// Computes the signature of `profile` under the function bank.
    pub fn compute(bank: &[MinHasher], profile: &[ItemId]) -> Self {
        MinHashSignature(bank.iter().map(|h| h.min_value(profile).unwrap_or(u64::MAX)).collect())
    }

    /// Estimated Jaccard similarity: fraction of equal coordinates.
    pub fn estimate(&self, other: &MinHashSignature) -> f64 {
        assert_eq!(self.0.len(), other.0.len(), "signatures must have equal length");
        if self.0.is_empty() {
            return 0.0;
        }
        let equal = self.0.iter().zip(&other.0).filter(|(a, b)| a == b).count();
        equal as f64 / self.0.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::Jaccard;

    #[test]
    fn empty_profile_has_no_bucket() {
        let mh = MinHasher::new(1);
        assert_eq!(mh.bucket(&[]), None);
        assert_eq!(mh.min_value(&[]), None);
    }

    #[test]
    fn bucket_is_an_element_of_the_profile() {
        let mh = MinHasher::new(2);
        let profile = [3, 17, 99, 1000];
        let b = mh.bucket(&profile).unwrap();
        assert!(profile.contains(&b));
    }

    #[test]
    fn identical_profiles_share_buckets() {
        let mh = MinHasher::new(3);
        let p = [5, 6, 7];
        assert_eq!(mh.bucket(&p), mh.bucket(&p));
    }

    #[test]
    fn bucket_is_stable_under_reordering_of_equal_sets() {
        // Profiles are sorted in the dataset, but bucket() must not depend
        // on position — it is keyed on hashed values.
        let mh = MinHasher::new(4);
        assert_eq!(mh.bucket(&[1, 2, 3]), mh.bucket(&[1, 2, 3]));
    }

    #[test]
    fn collision_probability_tracks_jaccard() {
        // The defining MinHash property: P[min agree] = J(a, b).
        let a: Vec<u32> = (0..40).collect();
        let b: Vec<u32> = (20..60).collect(); // J = 20/60 = 1/3
        let j = Jaccard::similarity(&a, &b);
        let trials = 4000;
        let agreements = (0..trials)
            .filter(|&s| {
                let mh = MinHasher::new(s);
                mh.min_value(&a) == mh.min_value(&b)
            })
            .count();
        let p = agreements as f64 / trials as f64;
        assert!((p - j).abs() < 0.03, "agreement rate {p:.3} vs Jaccard {j:.3}");
    }

    #[test]
    fn signature_estimate_tracks_jaccard() {
        let bank = MinHasher::family(7, 512);
        let a: Vec<u32> = (0..30).collect();
        let b: Vec<u32> = (10..40).collect(); // J = 20/40 = 0.5
        let sa = MinHashSignature::compute(&bank, &a);
        let sb = MinHashSignature::compute(&bank, &b);
        let est = sa.estimate(&sb);
        assert!((est - 0.5).abs() < 0.08, "estimate {est} too far from 0.5");
    }

    #[test]
    fn signature_self_similarity_is_one() {
        let bank = MinHasher::family(8, 16);
        let s = MinHashSignature::compute(&bank, &[1, 2, 3]);
        assert_eq!(s.estimate(&s), 1.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_signature_lengths_panic() {
        MinHashSignature(vec![1]).estimate(&MinHashSignature(vec![1, 2]));
    }
}
