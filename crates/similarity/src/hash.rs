//! Seeded family of fast 64-bit hash functions.
//!
//! The paper computes its FastRandomHash values "using Jenkins' hash
//! function" \[31\]. Any fast avalanche hash with uniform output works — the
//! theory (Theorems 1 and 2) only assumes the generative hash behaves like a
//! uniform random function. We use the SplitMix64 finalizer (Stafford's
//! Mix13 constants), which passes avalanche tests, is three multiplications
//! and three shifts per value, and is trivially seedable: each seed selects
//! an (approximately) independent function from the family. The substitution
//! keeps the one property the analysis uses, and the `theory` reproduction
//! binary validates it empirically: it reports the measured collision
//! probability of a user pair beside Theorem 1's bounds.

/// One member of the seeded hash family.
///
/// Two `SeededHash` values with the same seed are identical functions; with
/// different seeds they behave as independent uniform functions for the
/// purposes of the FastRandomHash analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeededHash {
    seed: u64,
}

impl SeededHash {
    /// Creates the hash function identified by `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SeededHash { seed }
    }

    /// The seed that identifies this function.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Hashes a 64-bit value to a uniform 64-bit value.
    #[inline(always)]
    pub fn hash_u64(&self, x: u64) -> u64 {
        // SplitMix64 finalizer over the seed-perturbed input. The golden
        // ratio increment decorrelates nearby seeds.
        let mut z = x ^ self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Hashes a 32-bit value (item ids are `u32` throughout the workspace).
    #[inline(always)]
    pub fn hash_u32(&self, x: u32) -> u64 {
        self.hash_u64(x as u64)
    }

    /// Hashes into the discrete range `1..=b` — the generative hash
    /// `h : I → ⟦1, b⟧` of the paper (§II-D). Uses the high-bits
    /// multiply-shift reduction to avoid modulo bias.
    #[inline(always)]
    pub fn hash_range(&self, x: u32, b: u32) -> u32 {
        debug_assert!(b >= 1);
        let h = self.hash_u32(x);
        // Map a uniform u64 to 0..b via 128-bit multiply, then shift to 1..=b.
        (((h as u128 * b as u128) >> 64) as u32) + 1
    }

    /// Derives the i-th function of a family rooted at this seed.
    ///
    /// Used to build the `t` generative hash functions of C² and the
    /// MinHash/LSH function banks from a single experiment seed.
    #[inline]
    pub fn derive(&self, index: u64) -> SeededHash {
        // Re-mix so derived seeds don't form an arithmetic progression.
        SeededHash::new(SeededHash::new(self.seed).hash_u64(index ^ 0xA076_1D64_78BD_642F))
    }
}

/// Builds `t` independent hash functions from one root seed.
pub fn family(root_seed: u64, t: usize) -> Vec<SeededHash> {
    let root = SeededHash::new(root_seed);
    (0..t as u64).map(|i| root.derive(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_function() {
        let a = SeededHash::new(7);
        let b = SeededHash::new(7);
        for x in 0..100u32 {
            assert_eq!(a.hash_u32(x), b.hash_u32(x));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SeededHash::new(1);
        let b = SeededHash::new(2);
        let collisions = (0..1000u32).filter(|&x| a.hash_u32(x) == b.hash_u32(x)).count();
        assert_eq!(collisions, 0, "64-bit outputs of distinct seeds should not collide");
    }

    #[test]
    fn hash_range_is_within_bounds() {
        let h = SeededHash::new(3);
        for b in [1u32, 2, 3, 7, 4096] {
            for x in 0..500u32 {
                let v = h.hash_range(x, b);
                assert!((1..=b).contains(&v), "h({x}) = {v} outside 1..={b}");
            }
        }
    }

    #[test]
    fn hash_range_is_roughly_uniform() {
        let h = SeededHash::new(11);
        let b = 16u32;
        let n = 64_000u32;
        let mut counts = vec![0usize; b as usize + 1];
        for x in 0..n {
            counts[h.hash_range(x, b) as usize] += 1;
        }
        let expected = n as f64 / b as f64;
        for (bucket, &count) in counts.iter().enumerate().skip(1) {
            let dev = (count as f64 - expected).abs() / expected;
            assert!(dev < 0.10, "bucket {bucket} deviates {dev:.3} from uniform");
        }
    }

    #[test]
    fn avalanche_single_bit_flip_changes_half_the_output() {
        let h = SeededHash::new(13);
        let mut total_flipped = 0u32;
        let trials = 256;
        for x in 0..trials {
            let base = h.hash_u64(x);
            let flipped = h.hash_u64(x ^ 1);
            total_flipped += (base ^ flipped).count_ones();
        }
        let avg = total_flipped as f64 / trials as f64;
        assert!((avg - 32.0).abs() < 3.0, "avalanche average {avg} bits, expected ~32");
    }

    #[test]
    fn family_members_are_distinct() {
        let fam = family(99, 16);
        for i in 0..fam.len() {
            for j in (i + 1)..fam.len() {
                assert_ne!(fam[i].seed(), fam[j].seed());
            }
        }
    }

    #[test]
    fn family_is_deterministic() {
        assert_eq!(family(5, 8), family(5, 8));
    }

    #[test]
    fn range_one_maps_everything_to_one() {
        let h = SeededHash::new(17);
        for x in 0..100 {
            assert_eq!(h.hash_range(x, 1), 1);
        }
    }
}
