//! GoldFinger compact fingerprints (paper §II-F, Table V).
//!
//! GoldFinger \[19\], \[40\] summarizes each user's profile into a short bit
//! vector (a *Single Hash Fingerprint*): bit `h(i) mod B` is set for every
//! item `i ∈ P_u`. The Jaccard similarity of two profiles is then estimated
//! from the fingerprints alone:
//!
//! `Ĵ(u, v) = popcount(F_u ∧ F_v) / popcount(F_u ∨ F_v)`
//!
//! which replaces a sorted-slice merge over potentially hundreds of items by
//! a handful of word-wise AND/OR/popcount operations. The paper uses
//! 1024-bit fingerprints for all algorithms in its main experiments and
//! ablates the choice in Table V.

use crate::hash::SeededHash;
use cnc_dataset::{Dataset, ItemId, Storage, UserId};

/// Per-dataset GoldFinger fingerprints (one `bits`-wide vector per user).
///
/// The word array lives behind [`Storage`], so a clone is O(1) and reads
/// the same words, and a set can borrow them straight out of a mapped
/// snapshot (`cnc-serve` zero-copy adoption); a set grows by appending
/// rows ([`GoldFinger::push_user`], [`GoldFinger::appended`]).
#[derive(Clone, Debug)]
pub struct GoldFinger {
    words: Storage<u64>,
    words_per_user: usize,
    bits: usize,
    seed: u64,
    num_users: usize,
}

impl GoldFinger {
    /// Paper default fingerprint width (bits).
    pub const DEFAULT_BITS: usize = 1024;

    /// Builds fingerprints for every user of `dataset`.
    ///
    /// `bits` must be a positive multiple of 64 (the paper explores 64 to
    /// 8096; we round the odd 8096 up to the 64-multiple 8128 if requested).
    ///
    /// # Panics
    /// Panics if `bits` is zero or not a multiple of 64.
    pub fn build(dataset: &Dataset, bits: usize, seed: u64) -> Self {
        Self::build_parallel(dataset, bits, seed, 1)
    }

    /// Builds fingerprints on `threads` workers (0 = all available cores).
    ///
    /// Each user's fingerprint depends only on that user's profile, so the
    /// user range is split into contiguous chunks and every worker fills a
    /// disjoint slice of the word array — the result is bit-identical to
    /// the serial [`GoldFinger::build`] whatever the thread count.
    ///
    /// # Panics
    /// Panics if `bits` is zero or not a multiple of 64.
    pub fn build_parallel(dataset: &Dataset, bits: usize, seed: u64, threads: usize) -> Self {
        assert!(bits > 0 && bits.is_multiple_of(64), "bits must be a positive multiple of 64");
        let words = vec![0u64; dataset.num_users() * (bits / 64)];
        Self::fill(words, dataset, bits, seed, threads)
    }

    /// [`GoldFinger::build_parallel`] into a word array allocated with room
    /// for as many rows again, like [`GoldFinger::into_growable`]:
    /// [`GoldFinger::appended`] extends it in place without ever moving
    /// the built rows.
    ///
    /// # Panics
    /// Panics if `bits` is zero or not a multiple of 64.
    pub fn build_growable(dataset: &Dataset, bits: usize, seed: u64, threads: usize) -> Self {
        assert!(bits > 0 && bits.is_multiple_of(64), "bits must be a positive multiple of 64");
        let len = dataset.num_users() * (bits / 64);
        let mut words = Vec::with_capacity(2 * len);
        words.resize(len, 0);
        Self::fill(words, dataset, bits, seed, threads)
    }

    /// Fills `words` — zeroed, one row per user of `dataset` — with the
    /// users' fingerprints on `threads` workers.
    fn fill(
        mut words: Vec<u64>,
        dataset: &Dataset,
        bits: usize,
        seed: u64,
        threads: usize,
    ) -> Self {
        let words_per_user = bits / 64;
        let hash = SeededHash::new(seed);
        let n = dataset.num_users();
        let threads = cnc_threadpool::effective_threads(threads);
        if threads <= 1 || n < 2 * threads {
            for (u, profile) in dataset.iter() {
                let base = u as usize * words_per_user;
                Self::fill_user(&mut words[base..base + words_per_user], profile, hash, bits);
            }
        } else {
            // A few chunks per worker so a skewed profile-length
            // distribution cannot serialize the build on one straggler.
            let chunk_users = n.div_ceil(threads * 4).max(1);
            let jobs: Vec<(u64, (usize, &mut [u64]))> = words
                .chunks_mut(chunk_users * words_per_user)
                .enumerate()
                .map(|(chunk, slice)| (0, (chunk, slice)))
                .collect();
            cnc_threadpool::PriorityPool::run(threads, jobs, |(chunk, slice)| {
                let first = chunk * chunk_users;
                for (offset, rows) in slice.chunks_mut(words_per_user).enumerate() {
                    Self::fill_user(rows, dataset.profile((first + offset) as UserId), hash, bits);
                }
            });
        }
        GoldFinger { words: words.into(), words_per_user, bits, seed, num_users: n }
    }

    /// Sets the fingerprint bits of one user's profile into its word row.
    #[inline]
    fn fill_user(row: &mut [u64], profile: &[ItemId], hash: SeededHash, bits: usize) {
        for &item in profile {
            let bit = Self::bit_of(hash, item, bits);
            row[bit / 64] |= 1u64 << (bit % 64);
        }
    }

    #[inline(always)]
    fn bit_of(hash: SeededHash, item: ItemId, bits: usize) -> usize {
        // bits is a power-of-two multiple of 64 in practice, but keep the
        // general multiply-shift reduction so any multiple of 64 works.
        ((hash.hash_u32(item) as u128 * bits as u128) >> 64) as usize
    }

    /// Fingerprint width in bits.
    #[inline]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of users fingerprinted.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Words per fingerprint (`bits / 64`).
    #[inline]
    pub fn words_per_user(&self) -> usize {
        self.words_per_user
    }

    /// The hash seed the fingerprints were built with (lets consumers of a
    /// shared build check it matches their configured backend).
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The full word array: user `u`'s fingerprint occupies words
    /// `u·words_per_user .. (u+1)·words_per_user`. This is the contiguous
    /// layout the [`crate::kernel`] layer builds its tiles and fixed-width
    /// kernels over.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The raw fingerprint words of `user`.
    #[inline]
    pub fn fingerprint(&self, user: UserId) -> &[u64] {
        let base = user as usize * self.words_per_user;
        &self.words[base..base + self.words_per_user]
    }

    /// The fingerprint an arbitrary profile would get under this set's
    /// width and seed — out-of-sample queries become scoreable rows
    /// without joining the dataset (`cnc-query`'s batched beam search).
    ///
    /// Bit-identical to the row [`GoldFinger::build`] would produce for
    /// the same profile.
    pub fn fingerprint_profile(&self, profile: &[ItemId]) -> Vec<u64> {
        let mut row = vec![0u64; self.words_per_user];
        Self::fill_user(&mut row, profile, SeededHash::new(self.seed), self.bits);
        row
    }

    /// Appends one user's fingerprint (online growth — the rows the
    /// serving writer's pending batch and `cnc-query::DynamicIndex` add
    /// for their inserts); returns the new user's id. The row is appended
    /// to the word array as [`GoldFinger::appended`] appends a set: in
    /// place when the array has room no other append claimed, else
    /// copied once with room for the pushes after it; every clone of the
    /// set keeps reading its own rows.
    pub fn push_user(&mut self, profile: &[ItemId]) -> UserId {
        self.words = self.words.appended(&self.fingerprint_profile(profile));
        self.num_users += 1;
        (self.num_users - 1) as UserId
    }

    /// Reassembles a fingerprint set from its persisted parts (the
    /// `cnc-serve` snapshot loader). The inverse of reading
    /// [`GoldFinger::words`], [`GoldFinger::bits`] and
    /// [`GoldFinger::seed`]; rejects inconsistent dimensions instead of
    /// panicking, since the parts come from an untrusted file.
    pub fn from_parts(words: Vec<u64>, bits: usize, seed: u64) -> Result<GoldFinger, String> {
        Self::from_storage(words.into(), bits, seed)
    }

    /// [`GoldFinger::from_parts`] over [`Storage`]-backed words — the
    /// entry point mmap adoption uses to borrow the word array straight
    /// from a mapped snapshot. Validated identically.
    pub fn from_storage(words: Storage<u64>, bits: usize, seed: u64) -> Result<GoldFinger, String> {
        if bits == 0 || !bits.is_multiple_of(64) {
            return Err(format!("fingerprint width {bits} is not a positive multiple of 64"));
        }
        let words_per_user = bits / 64;
        if !words.len().is_multiple_of(words_per_user) {
            return Err(format!(
                "{} fingerprint words do not divide into {words_per_user}-word rows",
                words.len()
            ));
        }
        let num_users = words.len() / words_per_user;
        Ok(GoldFinger { words, words_per_user, bits, seed, num_users })
    }

    /// True when the word array borrows a mapped snapshot file (see
    /// [`Storage::is_mapped`]).
    pub fn is_mapped(&self) -> bool {
        self.words.is_mapped()
    }

    /// The set with room past its word array for at least `users` more
    /// rows, so [`GoldFinger::appended`] extends it in place (see
    /// [`Storage::into_growable`]). Only for a set that will be appended
    /// to: making room may move the array.
    pub fn into_growable(self, users: usize) -> GoldFinger {
        GoldFinger { words: self.words.into_growable(users * self.words_per_user), ..self }
    }

    /// This set's rows followed by `tail`'s, as one shared set — equal to
    /// fingerprinting the concatenated profiles afresh, since every row
    /// depends on its own profile only. The words are written in place
    /// past this set's when its buffer has room and no other append
    /// claimed it first (`Storage::appended`): O(`tail`), sharing this
    /// set's allocation. Otherwise they are copied once, with room for the
    /// appends after it. `self` is unchanged either way.
    ///
    /// # Panics
    /// Panics if the two sets differ in width or seed.
    pub fn appended(&self, tail: &GoldFinger) -> GoldFinger {
        assert_eq!(
            (self.bits, self.seed),
            (tail.bits, tail.seed),
            "appended fingerprints must share width and seed"
        );
        GoldFinger {
            words: self.words.appended(&tail.words),
            num_users: self.num_users + tail.num_users,
            ..*self
        }
    }

    /// Estimated Jaccard similarity of two users, in `[0, 1]`.
    ///
    /// Exact when no two distinct items of the union hash to the same bit;
    /// otherwise collisions bias the estimate (the effect Table V measures
    /// as a small quality delta).
    #[inline]
    pub fn estimate(&self, u: UserId, v: UserId) -> f64 {
        let fu = self.fingerprint(u);
        let fv = self.fingerprint(v);
        let (mut inter, mut union) = (0u32, 0u32);
        for (a, b) in fu.iter().zip(fv.iter()) {
            inter += (a & b).count_ones();
            union += (a | b).count_ones();
        }
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// Number of set bits in `user`'s fingerprint (≤ `|P_u|`).
    pub fn popcount(&self, user: UserId) -> u32 {
        self.fingerprint(user).iter().map(|w| w.count_ones()).sum()
    }

    /// Memory footprint of all fingerprints, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::Jaccard;
    use cnc_dataset::SyntheticConfig;

    fn tiny(profiles: Vec<Vec<u32>>) -> Dataset {
        Dataset::from_profiles(profiles, 0)
    }

    #[test]
    fn identical_profiles_estimate_one() {
        let ds = tiny(vec![vec![1, 2, 3], vec![1, 2, 3]]);
        let gf = GoldFinger::build(&ds, 256, 1);
        assert_eq!(gf.estimate(0, 1), 1.0);
    }

    #[test]
    fn disjoint_profiles_estimate_near_zero() {
        let ds = tiny(vec![vec![1, 2, 3], vec![100, 200, 300]]);
        let gf = GoldFinger::build(&ds, 1024, 2);
        // With 6 items in 1024 bits, collisions are overwhelmingly unlikely.
        assert_eq!(gf.estimate(0, 1), 0.0);
    }

    #[test]
    fn estimate_is_exact_without_collisions() {
        let ds = tiny(vec![vec![1, 2, 3, 4], vec![3, 4, 5, 6]]);
        let gf = GoldFinger::build(&ds, 4096, 3);
        let exact = Jaccard::similarity(ds.profile(0), ds.profile(1));
        // 6 distinct items in 4096 bits: no collision w.h.p. for this seed.
        assert!((gf.estimate(0, 1) - exact).abs() < 1e-12);
    }

    #[test]
    fn empty_profiles_estimate_zero() {
        let ds = tiny(vec![vec![], vec![]]);
        let gf = GoldFinger::build(&ds, 64, 4);
        assert_eq!(gf.estimate(0, 1), 0.0);
        assert_eq!(gf.popcount(0), 0);
    }

    #[test]
    fn popcount_bounded_by_profile_size() {
        let ds = SyntheticConfig::small(31).generate();
        let gf = GoldFinger::build(&ds, 1024, 5);
        for u in ds.users().take(100) {
            assert!(gf.popcount(u) as usize <= ds.profile_len(u));
        }
    }

    #[test]
    fn wider_fingerprints_are_more_accurate() {
        let ds = SyntheticConfig::small(37).generate();
        let narrow = GoldFinger::build(&ds, 64, 6);
        let wide = GoldFinger::build(&ds, 8192, 6);
        let (mut err_narrow, mut err_wide, mut n) = (0.0f64, 0.0f64, 0);
        for u in (0..100u32).step_by(3) {
            for v in (1..100u32).step_by(7) {
                let exact = Jaccard::similarity(ds.profile(u), ds.profile(v));
                err_narrow += (narrow.estimate(u, v) - exact).abs();
                err_wide += (wide.estimate(u, v) - exact).abs();
                n += 1;
            }
        }
        assert!(
            err_wide / n as f64 <= err_narrow / n as f64,
            "8192-bit error {} should not exceed 64-bit error {}",
            err_wide / n as f64,
            err_narrow / n as f64
        );
    }

    #[test]
    fn size_bytes_matches_width() {
        let ds = tiny(vec![vec![1], vec![2], vec![3]]);
        let gf = GoldFinger::build(&ds, 1024, 7);
        assert_eq!(gf.size_bytes(), 3 * 1024 / 8);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn non_word_width_panics() {
        let ds = tiny(vec![vec![1]]);
        GoldFinger::build(&ds, 100, 8);
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        let ds = SyntheticConfig::small(53).generate();
        let serial = GoldFinger::build(&ds, 1024, 9);
        for threads in [0, 2, 3, 7] {
            let parallel = GoldFinger::build_parallel(&ds, 1024, 9, threads);
            assert_eq!(serial.words(), parallel.words(), "threads = {threads}");
            let growable = GoldFinger::build_growable(&ds, 1024, 9, threads);
            assert_eq!(serial.words(), growable.words(), "growable, threads = {threads}");
            let grown = growable.appended(&serial);
            assert_eq!(grown.words().as_ptr(), growable.words().as_ptr(), "room for as many again");
        }
    }

    #[test]
    fn parallel_build_handles_tiny_datasets() {
        for profiles in [vec![], vec![vec![1, 2]], vec![vec![1], vec![2], vec![3]]] {
            let ds = tiny(profiles);
            let serial = GoldFinger::build(&ds, 128, 3);
            let parallel = GoldFinger::build_parallel(&ds, 128, 3, 4);
            assert_eq!(serial.words(), parallel.words());
        }
    }

    #[test]
    fn fingerprint_profile_matches_built_rows() {
        let ds = SyntheticConfig::small(61).generate();
        let gf = GoldFinger::build(&ds, 1024, 11);
        for u in ds.users().take(40) {
            assert_eq!(gf.fingerprint_profile(ds.profile(u)), gf.fingerprint(u), "user {u}");
        }
    }

    #[test]
    fn push_user_grows_the_set_bit_identically() {
        let profiles =
            vec![vec![1u32, 2, 3], vec![4, 5], vec![1, 9, 20, 31], vec![], vec![7, 8, 9]];
        let full = GoldFinger::build(&Dataset::from_profiles(profiles.clone(), 0), 256, 5);
        let mut grown =
            GoldFinger::build(&Dataset::from_profiles(profiles[..2].to_vec(), 0), 256, 5);
        let held = grown.clone();
        for (expect_id, profile) in profiles.iter().enumerate().skip(2) {
            assert_eq!(grown.push_user(profile) as usize, expect_id);
        }
        assert_eq!(grown.num_users(), full.num_users());
        assert_eq!(grown.words(), full.words());
        assert_eq!(held.words(), &full.words()[..8], "a clone keeps reading its own rows");
    }

    #[test]
    fn appended_equals_a_fresh_build_and_grows_a_growable_set_in_place() {
        let profiles =
            vec![vec![1u32, 2, 3], vec![4, 5], vec![1, 9, 20, 31], vec![], vec![7, 8, 9]];
        let full = GoldFinger::build(&Dataset::from_profiles(profiles.clone(), 0), 256, 5);
        let base = GoldFinger::build(&Dataset::from_profiles(profiles[..3].to_vec(), 0), 256, 5)
            .into_growable(2);
        let tail = GoldFinger::build(&Dataset::from_profiles(profiles[3..].to_vec(), 0), 256, 5);
        let grown = base.appended(&tail);
        assert_eq!(grown.num_users(), full.num_users());
        assert_eq!(grown.words(), full.words());
        assert_eq!(grown.words().as_ptr(), base.words().as_ptr(), "rows land past the base");
        assert_eq!(base.num_users(), 3);
        assert_eq!(base.words(), &full.words()[..12], "the base reads what it read");
    }

    #[test]
    #[should_panic(expected = "share width and seed")]
    fn appending_another_width_panics() {
        let ds = Dataset::from_profiles(vec![vec![1u32]], 0);
        GoldFinger::build(&ds, 128, 5).appended(&GoldFinger::build(&ds, 64, 5));
    }

    #[test]
    fn from_parts_round_trips_and_rejects_garbage() {
        let ds = SyntheticConfig::small(67).generate();
        let gf = GoldFinger::build(&ds, 512, 13);
        let back = GoldFinger::from_parts(gf.words().to_vec(), gf.bits(), gf.seed()).unwrap();
        assert_eq!(back.words(), gf.words());
        assert_eq!(back.num_users(), gf.num_users());
        assert_eq!(back.words_per_user(), gf.words_per_user());
        assert_eq!((back.bits(), back.seed()), (gf.bits(), gf.seed()));
        assert!(GoldFinger::from_parts(vec![0; 8], 0, 1).is_err(), "zero width");
        assert!(GoldFinger::from_parts(vec![0; 8], 100, 1).is_err(), "non-word width");
        assert!(GoldFinger::from_parts(vec![0; 7], 128, 1).is_err(), "ragged rows");
    }

    #[test]
    fn words_layout_matches_fingerprints() {
        let ds = SyntheticConfig::small(59).generate();
        let gf = GoldFinger::build(&ds, 256, 4);
        let w = gf.words_per_user();
        assert_eq!(w, 4);
        for u in ds.users().take(50) {
            assert_eq!(&gf.words()[u as usize * w..(u as usize + 1) * w], gf.fingerprint(u));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::jaccard::Jaccard;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn estimate_in_unit_interval(
            a in proptest::collection::btree_set(0u32..200, 0..30),
            b in proptest::collection::btree_set(0u32..200, 0..30),
            seed in 0u64..50,
        ) {
            let ds = Dataset::from_profiles(
                vec![a.into_iter().collect(), b.into_iter().collect()], 0);
            let gf = GoldFinger::build(&ds, 256, seed);
            let e = gf.estimate(0, 1);
            prop_assert!((0.0..=1.0).contains(&e));
        }

        #[test]
        fn estimate_symmetric(
            a in proptest::collection::btree_set(0u32..200, 0..30),
            b in proptest::collection::btree_set(0u32..200, 0..30),
        ) {
            let ds = Dataset::from_profiles(
                vec![a.into_iter().collect(), b.into_iter().collect()], 0);
            let gf = GoldFinger::build(&ds, 128, 9);
            prop_assert_eq!(gf.estimate(0, 1), gf.estimate(1, 0));
        }

        #[test]
        fn estimate_exact_when_fingerprint_is_injective(
            a in proptest::collection::btree_set(0u32..100, 1..20),
            b in proptest::collection::btree_set(0u32..100, 1..20),
        ) {
            let av: Vec<u32> = a.into_iter().collect();
            let bv: Vec<u32> = b.into_iter().collect();
            let ds = Dataset::from_profiles(vec![av.clone(), bv.clone()], 0);
            let gf = GoldFinger::build(&ds, 8192, 10);
            // Check injectivity of the hash on the union; if it holds, the
            // estimate must equal the exact Jaccard.
            let hash = SeededHash::new(10);
            let mut bits: Vec<usize> = av.iter().chain(bv.iter())
                .map(|&i| GoldFinger::bit_of(hash, i, 8192)).collect();
            bits.sort_unstable();
            bits.dedup();
            let mut union: Vec<u32> = av.iter().chain(bv.iter()).copied().collect();
            union.sort_unstable();
            union.dedup();
            prop_assume!(bits.len() == union.len());
            let exact = Jaccard::similarity(&av, &bv);
            prop_assert!((gf.estimate(0, 1) - exact).abs() < 1e-12);
        }
    }
}
