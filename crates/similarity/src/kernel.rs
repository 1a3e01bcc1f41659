//! Batched, monomorphized similarity kernels — the §II-F hot path.
//!
//! Every KNN algorithm in this reproduction funnels through
//! [`crate::SimilarityData::sim`], which pays three per-pair costs that have
//! nothing to do with the algorithms themselves:
//!
//! 1. an **enum match** on the backend (raw Jaccard vs GoldFinger),
//! 2. a **contended relaxed `fetch_add`** on the shared comparison counter,
//! 3. a **bounds-checked, runtime-width popcount loop** over two scattered
//!    per-user slices.
//!
//! The paper's pitch is that GoldFinger reduces similarity to "a handful of
//! word-wise AND/OR/popcount operations"; at that scale the dispatch and
//! accounting overheads dominate. This module removes all three for the
//! cluster-solve hot path:
//!
//! * [`SimKernel`] is a plain trait over *row indices*; solvers are written
//!   once, generic over the kernel, and [`crate::SimilarityData`]'s
//!   `solve_cluster`/`solve_global` dispatch on the backend **once per
//!   cluster** (via the [`SimSolve`] visitor), so the whole solve
//!   monomorphizes and per-pair calls inline with no branch;
//! * [`GoldFingerKernel`]`<const W: usize>` fixes the fingerprint width at
//!   compile time (64-bit/1-word, 1024-bit/16-word, 4096-bit/64-word and
//!   8192-bit/128-word specializations; [`GoldFingerDynKernel`] is the
//!   fallback for other widths), letting the compiler fully unroll the
//!   AND/OR/popcount loop;
//! * [`ClusterTile`] gathers a cluster's fingerprints into one contiguous,
//!   cache-friendly block **once per cluster**, so the all-pairs loop
//!   streams over dense rows instead of striding through the full dataset's
//!   word array;
//! * comparison accounting is the *caller's* job: kernels never touch the
//!   shared atomic. Solvers count locally and flush one
//!   [`crate::SimilarityData::add_comparisons`] per cluster or iteration,
//!   with totals provably unchanged;
//! * the **query kernels** ([`RawQueryKernel`], [`GoldFingerQueryKernel`],
//!   [`GoldFingerDynQueryKernel`]) extend the user rows with one trailing
//!   external row — an out-of-sample query — so `cnc-query`'s beam search
//!   can feed whole neighbour lists through [`one_vs_many`] instead of a
//!   scalar oracle call per candidate.
//!
//! Every kernel is **bit-identical** to the scalar oracle: the similarity
//! is computed with exactly the same `f64` arithmetic and cast as
//! `SimilarityData::sim`, asserted by the proptests below.

use crate::goldfinger::GoldFinger;
use crate::jaccard::Jaccard;
use cnc_dataset::{Dataset, UserId};

/// A monomorphized similarity oracle over row indices `0..len()`.
///
/// Rows are whatever the constructor bound them to: global user ids
/// ([`RawKernel`], [`GoldFingerKernel::over`]) or cluster-local indices
/// ([`ClusterTile`] rows, [`Remap`]). `sim` performs **no** comparison
/// accounting — batched callers count locally and flush once.
pub trait SimKernel: Sync {
    /// Number of rows this kernel spans.
    fn len(&self) -> usize;

    /// True if the kernel spans no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Similarity of rows `i` and `j`, bit-identical to
    /// [`crate::SimilarityData::sim`] on the corresponding users.
    fn sim(&self, i: u32, j: u32) -> f32;

    /// Streams `sim(i, j)` for every `j` in `i+1 .. len()`, in order — one
    /// row of the all-pairs triangle. The default calls [`SimKernel::sim`]
    /// per pair; kernels with contiguous rows override it to load row `i`
    /// once and stream the tail rows with no per-pair index arithmetic.
    #[inline]
    fn sweep_row(&self, i: u32, mut sink: impl FnMut(u32, f32))
    where
        Self: Sized,
    {
        for j in (i + 1)..self.len() as u32 {
            sink(j, self.sim(i, j));
        }
    }

    /// Streams every unordered pair `i < j` exactly once. The visit
    /// *order* is kernel-specific (fingerprint kernels block the sweep for
    /// cache reuse); callers must not depend on it — bounded
    /// neighbour-list contents are insertion-order independent, which is
    /// all the solvers need.
    #[inline]
    fn sweep_pairs(&self, mut sink: impl FnMut(u32, u32, f32))
    where
        Self: Sized,
    {
        for i in 0..self.len() as u32 {
            self.sweep_row(i, |j, s| sink(i, j, s));
        }
    }
}

/// The shared final step: both the raw and the GoldFinger oracles divide in
/// `f64` and then truncate to `f32`, so the kernels must too — anything
/// else (e.g. a direct `f32` division) double-rounds differently on rare
/// ratios and would break bit-identity with the scalar path.
#[inline(always)]
fn ratio(inter: u32, union: u32) -> f32 {
    if union == 0 {
        0.0
    } else {
        (inter as f64 / union as f64) as f32
    }
}

/// Dynamic-width AND/OR/popcount estimate over two word rows.
#[inline(always)]
fn sim_words(a: &[u64], b: &[u64]) -> f32 {
    let (mut inter, mut union) = (0u32, 0u32);
    for (x, y) in a.iter().zip(b.iter()) {
        inter += (x & y).count_ones();
        union += (x | y).count_ones();
    }
    ratio(inter, union)
}

/// Fixed-width AND/OR/popcount counts, division deferred: `W` is a
/// compile-time constant, so the loop fully unrolls (and vectorizes —
/// `vpopcntq` on AVX-512 machines) with no per-word bounds checks.
#[inline(always)]
fn counts_fixed<const W: usize>(a: &[u64; W], b: &[u64; W]) -> (u32, u32) {
    let (mut inter, mut union) = (0u32, 0u32);
    let mut w = 0;
    while w < W {
        inter += (a[w] & b[w]).count_ones();
        union += (a[w] | b[w]).count_ones();
        w += 1;
    }
    (inter, union)
}

/// Fixed-width estimate (counts + ratio) for one pair.
#[inline(always)]
fn sim_words_fixed<const W: usize>(a: &[u64; W], b: &[u64; W]) -> f32 {
    let (inter, union) = counts_fixed(a, b);
    ratio(inter, union)
}

/// How many pairs the batched sweeps group per block (one streamed row
/// against LANES cached rows).
const LANES: usize = 8;

/// Explicit AVX-512 inner loops for word counts that are a multiple of 8
/// (one `zmm` per 8 words): `vpopcntq` accumulation for a group of LANES
/// pairs held entirely in vector registers, a transpose-style horizontal
/// reduction, and **one** `vdivpd` for the group's eight ratios — the
/// scalar `divsd` + reduce tail is the serial bottleneck once the
/// popcounts vectorize. Every lane performs the same correctly-rounded
/// IEEE operations as the scalar path (`u64 → f64` conversion is exact,
/// division and the `f64 → f32` narrowing round to nearest even), so the
/// results are bit-identical — asserted by the module's proptests on any
/// AVX-512 host.
///
/// Dispatch is at **runtime** (the ROADMAP "runtime ISA dispatch" item):
/// the functions are compiled on every x86-64 build via
/// `#[target_feature]` — portable `x86-64-v3` CI included — and the
/// sweeps branch on [`avx512::available`] (`is_x86_feature_detected!`),
/// so a portable binary still uses, and tests still cover, the AVX-512
/// path whenever the host supports it.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    /// True when the host can execute the sweeps below. The std detection
    /// macro caches the CPUID probe in an atomic, so the per-row checks
    /// in `sweep_row`/`sweep_pairs` cost one relaxed load each.
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    }

    /// Reduces eight 8-lane `u64` vectors to one vector whose lane `r`
    /// holds the lane-sum of `v[r]` (three unpack/shuffle + add levels).
    ///
    /// # Safety
    /// The caller must have verified [`available`]: the body is AVX-512F
    /// instructions. It takes no pointer and touches no memory of its own.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512vpopcntdq")]
    unsafe fn hsum8(v: [__m512i; 8]) -> __m512i {
        let sum2 =
            |a, b| _mm512_add_epi64(_mm512_unpacklo_epi64(a, b), _mm512_unpackhi_epi64(a, b));
        let l0 = sum2(v[0], v[1]);
        let l1 = sum2(v[2], v[3]);
        let l2 = sum2(v[4], v[5]);
        let l3 = sum2(v[6], v[7]);
        let m0 = _mm512_add_epi64(
            _mm512_shuffle_i64x2::<0x44>(l0, l1),
            _mm512_shuffle_i64x2::<0xEE>(l0, l1),
        );
        let m1 = _mm512_add_epi64(
            _mm512_shuffle_i64x2::<0x44>(l2, l3),
            _mm512_shuffle_i64x2::<0xEE>(l2, l3),
        );
        _mm512_add_epi64(_mm512_shuffle_i64x2::<0x88>(m0, m1), _mm512_shuffle_i64x2::<0xDD>(m0, m1))
    }

    /// Intersection/union popcounts of one streamed `W`-word row (`other`)
    /// against eight contiguous cached rows starting at `rows`, returned
    /// as two vectors whose lane `r` belongs to cached row `r`.
    ///
    /// # Safety
    /// The caller must have verified [`available`] (AVX-512F loads and
    /// adds, AVX-512 VPOPCNTDQ popcounts). `rows` must point at `8 * W`
    /// readable words, and `W` must be a positive multiple of 8 (one
    /// `zmm` per 8-word chunk), so that every unaligned 8-word load below
    /// stays inside `rows` and `other`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512vpopcntdq")]
    unsafe fn counts_vs8<const W: usize>(rows: *const u64, other: &[u64; W]) -> (__m512i, __m512i) {
        debug_assert!(W > 0 && W.is_multiple_of(8));
        let mut inter = [_mm512_setzero_si512(); 8];
        let mut union = [_mm512_setzero_si512(); 8];
        let mut chunk = 0;
        while chunk < W {
            // SAFETY: `chunk + 8 <= W` (W is a multiple of 8), so words
            // `chunk..chunk + 8` of `other` are in bounds.
            let vo = _mm512_loadu_si512(other.as_ptr().add(chunk) as *const _);
            let mut r = 0;
            while r < 8 {
                // SAFETY: `r < 8` and `chunk + 8 <= W`, so the eight words
                // from `r * W + chunk` lie inside the `8 * W` at `rows`.
                let vr = _mm512_loadu_si512(rows.add(r * W + chunk) as *const _);
                inter[r] =
                    _mm512_add_epi64(inter[r], _mm512_popcnt_epi64(_mm512_and_si512(vr, vo)));
                union[r] = _mm512_add_epi64(union[r], _mm512_popcnt_epi64(_mm512_or_si512(vr, vo)));
                r += 1;
            }
            chunk += 8;
        }
        (hsum8(inter), hsum8(union))
    }

    /// Eight lane-wise [`super::ratio`]s in one `vdivpd`, 0/0 lanes masked
    /// to `+0.0` (the empty-fingerprint convention; the speculative divide
    /// cannot trap — FP exceptions are masked).
    ///
    /// # Safety
    /// The caller must have verified [`available`] (AVX-512F division and
    /// masking, AVX-512DQ `u64 → f64` conversion). It takes no pointer and
    /// stores only into its own eight-lane array.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512vpopcntdq")]
    unsafe fn ratio8(inter: __m512i, union: __m512i) -> [f32; 8] {
        let fi = _mm512_cvtepu64_pd(inter);
        let fu = _mm512_cvtepu64_pd(union);
        let q = _mm512_div_pd(fi, fu);
        let nonzero = _mm512_cmp_pd_mask::<_CMP_NEQ_OQ>(fu, _mm512_setzero_pd());
        let q = _mm512_maskz_mov_pd(nonzero, q);
        let s = _mm512_cvtpd_ps(q);
        let mut out = [0f32; 8];
        _mm256_storeu_ps(out.as_mut_ptr(), s);
        out
    }

    /// Similarities of one streamed `W`-word row against eight contiguous
    /// cached rows — popcounts, transpose reduction and the single
    /// `vdivpd` fused in one feature-annotated function so the helpers
    /// inline together whatever the binary's baseline ISA is.
    ///
    /// # Safety
    /// `rows` must point at `8 * W` readable words, `W` must be a
    /// positive multiple of 8, and the caller must have verified
    /// [`available`].
    #[target_feature(enable = "avx512f,avx512dq,avx512vpopcntdq")]
    pub unsafe fn group_vs_row<const W: usize>(rows: *const u64, other: &[u64; W]) -> [f32; 8] {
        // SAFETY: this function's contract is the union of its callees'.
        let (inter, union) = counts_vs8::<W>(rows, other);
        ratio8(inter, union)
    }
}

/// Exact-Jaccard kernel over global user ids (the `Raw` backend).
#[derive(Clone, Copy)]
pub struct RawKernel<'a> {
    dataset: &'a Dataset,
}

impl<'a> RawKernel<'a> {
    /// A kernel whose rows are the dataset's users.
    pub fn new(dataset: &'a Dataset) -> Self {
        RawKernel { dataset }
    }
}

impl SimKernel for RawKernel<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.dataset.num_users()
    }

    #[inline]
    fn sim(&self, i: u32, j: u32) -> f32 {
        Jaccard::similarity(self.dataset.profile(i), self.dataset.profile(j)) as f32
    }
}

/// Restricts an inner kernel to a cluster: row `i` maps to the inner row
/// `users[i]`. This is how the raw backend solves clusters (profiles are
/// variable-length, so there is no tile to gather).
#[derive(Clone, Copy)]
pub struct Remap<'a, K> {
    users: &'a [UserId],
    inner: K,
}

impl<'a, K: SimKernel> Remap<'a, K> {
    /// A cluster view of `inner` over the given rows.
    pub fn new(users: &'a [UserId], inner: K) -> Self {
        Remap { users, inner }
    }
}

impl<K: SimKernel> SimKernel for Remap<'_, K> {
    #[inline]
    fn len(&self) -> usize {
        self.users.len()
    }

    #[inline]
    fn sim(&self, i: u32, j: u32) -> f32 {
        self.inner.sim(self.users[i as usize], self.users[j as usize])
    }
}

/// Fixed-width GoldFinger kernel: row `i` is words
/// `i·W .. (i+1)·W` of a contiguous word slice (the full
/// [`GoldFinger::words`] array, or a [`ClusterTile`]).
#[derive(Clone, Copy)]
pub struct GoldFingerKernel<'a, const W: usize> {
    words: &'a [u64],
}

impl<'a, const W: usize> GoldFingerKernel<'a, W> {
    /// A kernel over a raw word slice (length must be a multiple of `W`).
    ///
    /// # Panics
    /// Panics if `W == 0` or the slice length is not a multiple of `W`.
    pub fn new(words: &'a [u64]) -> Self {
        assert!(W > 0, "fingerprint width must be positive");
        assert!(words.len().is_multiple_of(W), "word slice is not a whole number of {W}-word rows");
        GoldFingerKernel { words }
    }

    /// A kernel whose rows are the fingerprinted users of `gf`.
    ///
    /// # Panics
    /// Panics if `gf` was not built with `W` words per user.
    pub fn over(gf: &'a GoldFinger) -> Self {
        assert_eq!(gf.words_per_user(), W, "fingerprint width mismatch");
        Self::new(gf.words())
    }

    #[inline(always)]
    fn row(&self, i: u32) -> &[u64; W] {
        let base = i as usize * W;
        self.words[base..base + W].try_into().expect("row is exactly W words")
    }
}

impl<const W: usize> SimKernel for GoldFingerKernel<'_, W> {
    #[inline]
    fn len(&self) -> usize {
        self.words.len() / W
    }

    #[inline(always)]
    fn sim(&self, i: u32, j: u32) -> f32 {
        sim_words_fixed::<W>(self.row(i), self.row(j))
    }

    #[inline]
    fn sweep_row(&self, i: u32, mut sink: impl FnMut(u32, f32)) {
        let ri: [u64; W] = *self.row(i);
        let tail = &self.words[(i as usize + 1) * W..];
        let mut j = i + 1;

        // AVX-512 fast path for zmm-multiple widths: the contiguous tail
        // is consumed 8 rows at a time, each group's popcounts, reduction
        // and division staying in vector registers. The `W % 8` test is a
        // compile-time constant per instantiation — the dead branch
        // disappears — and the feature probe is a cached atomic load.
        #[cfg(target_arch = "x86_64")]
        if W.is_multiple_of(8) && avx512::available() {
            let mut groups = tail.chunks_exact(LANES * W);
            for group in &mut groups {
                // SAFETY: `group` is exactly `8 * W` contiguous words, `W`
                // is a multiple of 8 (the branch condition) and positive
                // (`new` asserts it), and `available()` verified the CPU
                // features at runtime.
                let sims = unsafe { avx512::group_vs_row::<W>(group.as_ptr(), &ri) };
                for s in sims {
                    sink(j, s);
                    j += 1;
                }
            }
            for chunk in groups.remainder().chunks_exact(W) {
                let rj: &[u64; W] = chunk.try_into().expect("chunks_exact yields W-word rows");
                sink(j, sim_words_fixed::<W>(&ri, rj));
                j += 1;
            }
            return;
        }

        // Portable path: row `i` cached on the stack, the tail consumed as
        // one contiguous stream in exact W-word chunks (no per-pair
        // slicing or bounds arithmetic).
        for chunk in tail.chunks_exact(W) {
            let rj: &[u64; W] = chunk.try_into().expect("chunks_exact yields W-word rows");
            sink(j, sim_words_fixed::<W>(&ri, rj));
            j += 1;
        }
    }

    fn sweep_pairs(&self, mut sink: impl FnMut(u32, u32, f32)) {
        // Register-blocked triangle: a full row sweep streams the whole
        // tile per `i` row, which is memory-bound for wide fingerprints.
        // Caching a block of LANES `i` rows and comparing each streamed
        // tail row against all of them divides the traffic by the block
        // height and gives the CPU LANES independent popcount chains per
        // loaded row. Pairs are each visited exactly once, in block-major
        // order (callers must not depend on the order).
        let n = self.len();
        let mut start = 0usize;
        while start < n {
            let height = LANES.min(n - start);
            let mut block = [[0u64; W]; LANES];
            for (r, row) in block[..height].iter_mut().enumerate() {
                *row = *self.row((start + r) as u32);
            }
            for r in 0..height {
                for c in (r + 1)..height {
                    let s = sim_words_fixed::<W>(&block[r], &block[c]);
                    sink((start + r) as u32, (start + c) as u32, s);
                }
            }
            let tail = &self.words[(start + height) * W..];

            #[cfg(target_arch = "x86_64")]
            if W.is_multiple_of(8) && height == LANES && avx512::available() {
                for (offset, chunk) in tail.chunks_exact(W).enumerate() {
                    let rj: &[u64; W] = chunk.try_into().expect("chunks_exact yields W-word rows");
                    let j = (start + height + offset) as u32;
                    // SAFETY: `block` is `LANES = 8` rows of `W` contiguous
                    // words, `W` is a positive multiple of 8 (the branch
                    // condition; `new` asserts `W > 0`), and `available()`
                    // verified the CPU features at runtime.
                    let sims =
                        unsafe { avx512::group_vs_row::<W>(block.as_ptr() as *const u64, rj) };
                    for (r, s) in sims.into_iter().enumerate() {
                        sink((start + r) as u32, j, s);
                    }
                }
                start += height;
                continue;
            }

            for (offset, chunk) in tail.chunks_exact(W).enumerate() {
                let rj: &[u64; W] = chunk.try_into().expect("chunks_exact yields W-word rows");
                let j = (start + height + offset) as u32;
                for (r, ri) in block[..height].iter().enumerate() {
                    sink((start + r) as u32, j, sim_words_fixed::<W>(ri, rj));
                }
            }
            start += height;
        }
    }
}

/// Dynamic-width GoldFinger fallback for widths without a fixed-`W`
/// specialization (any positive multiple of 64 bits).
#[derive(Clone, Copy)]
pub struct GoldFingerDynKernel<'a> {
    words: &'a [u64],
    words_per_user: usize,
}

impl<'a> GoldFingerDynKernel<'a> {
    /// A kernel over a raw word slice with `words_per_user` words per row.
    ///
    /// # Panics
    /// Panics if `words_per_user` is zero or does not divide the slice.
    pub fn new(words: &'a [u64], words_per_user: usize) -> Self {
        assert!(words_per_user > 0, "fingerprint width must be positive");
        assert!(
            words.len().is_multiple_of(words_per_user),
            "word slice is not a whole number of rows"
        );
        GoldFingerDynKernel { words, words_per_user }
    }

    /// A kernel whose rows are the fingerprinted users of `gf`.
    pub fn over(gf: &'a GoldFinger) -> Self {
        Self::new(gf.words(), gf.words_per_user())
    }

    #[inline]
    fn row(&self, i: u32) -> &[u64] {
        let base = i as usize * self.words_per_user;
        &self.words[base..base + self.words_per_user]
    }
}

impl SimKernel for GoldFingerDynKernel<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.words.len() / self.words_per_user
    }

    #[inline]
    fn sim(&self, i: u32, j: u32) -> f32 {
        sim_words(self.row(i), self.row(j))
    }

    #[inline]
    fn sweep_row(&self, i: u32, mut sink: impl FnMut(u32, f32)) {
        let ri = self.row(i);
        let tail = &self.words[(i as usize + 1) * self.words_per_user..];
        for (offset, rj) in tail.chunks_exact(self.words_per_user).enumerate() {
            sink(i + 1 + offset as u32, sim_words(ri, rj));
        }
    }
}

/// A cluster's fingerprints gathered into one contiguous block.
///
/// C²'s Step-2 solvers (and LSH's buckets) work on arbitrary user subsets;
/// reading each pair through [`GoldFinger::fingerprint`] strides across the
/// full dataset's word array. A tile is gathered **once per cluster** —
/// `O(|C|·W)` words, amortized over the `O(|C|²)` or `O(ρ·k²·|C|)` pairs
/// the solver computes — and row `i` is cluster-local user `users[i]`.
pub struct ClusterTile {
    words: Vec<u64>,
    words_per_user: usize,
    rows: usize,
}

impl ClusterTile {
    /// Copies the fingerprints of `users` (in order) into a dense tile.
    pub fn gather(gf: &GoldFinger, users: &[UserId]) -> Self {
        let words_per_user = gf.words_per_user();
        let mut words = Vec::with_capacity(users.len() * words_per_user);
        for &u in users {
            words.extend_from_slice(gf.fingerprint(u));
        }
        let tile = ClusterTile { words, words_per_user, rows: users.len() };
        // Guard the gather in debug builds: every tile row must be exactly
        // the fingerprint it claims to mirror.
        if cfg!(debug_assertions) {
            for (i, &u) in users.iter().enumerate() {
                debug_assert_eq!(
                    tile.row(i),
                    gf.fingerprint(u),
                    "tile row {i} does not match fingerprint of user {u}"
                );
            }
        }
        tile
    }

    /// Number of gathered rows (the cluster size).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the tile holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Words per row.
    #[inline]
    pub fn words_per_user(&self) -> usize {
        self.words_per_user
    }

    /// The words of row `i` (the fingerprint of the cluster's `i`-th user).
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.words_per_user..(i + 1) * self.words_per_user]
    }

    /// A fixed-width kernel over the tile's rows.
    ///
    /// # Panics
    /// Panics if the tile's width is not `W`.
    pub fn kernel<const W: usize>(&self) -> GoldFingerKernel<'_, W> {
        assert_eq!(self.words_per_user, W, "tile width mismatch");
        GoldFingerKernel::new(&self.words)
    }

    /// The dynamic-width kernel over the tile's rows.
    pub fn dyn_kernel(&self) -> GoldFingerDynKernel<'_> {
        GoldFingerDynKernel::new(&self.words, self.words_per_user)
    }

    /// Runs `solver` against the width specialization matching this tile
    /// (one dispatch per tile, never per pair).
    pub fn solve<S: SimSolve>(&self, solver: S) -> S::Output {
        solve_words(&self.words, self.words_per_user, solver)
    }
}

/// Runs `solver` against the fixed-width specialization matching
/// `words_per_user` over a contiguous word slice — the single dispatch
/// table shared by [`ClusterTile::solve`] and the whole-dataset
/// `SimilarityData::solve_global`, so the two monomorphization sites
/// cannot drift. Widths without a specialization fall back to
/// [`GoldFingerDynKernel`].
pub fn solve_words<S: SimSolve>(words: &[u64], words_per_user: usize, solver: S) -> S::Output {
    match words_per_user {
        1 => solver.run(&GoldFingerKernel::<1>::new(words)),
        16 => solver.run(&GoldFingerKernel::<16>::new(words)),
        64 => solver.run(&GoldFingerKernel::<64>::new(words)),
        128 => solver.run(&GoldFingerKernel::<128>::new(words)),
        _ => solver.run(&GoldFingerDynKernel::new(words, words_per_user)),
    }
}

/// A computation generic over the kernel — the visitor that lets
/// [`crate::SimilarityData`] pick the monomorphization once per cluster
/// (closures cannot be generic, so dispatch needs a named trait).
pub trait SimSolve {
    /// The solver's result type.
    type Output;

    /// Runs the solve against one concrete kernel.
    fn run<K: SimKernel>(self, kernel: &K) -> Self::Output;
}

/// Streams every unordered pair `i < j` of `kernel`'s rows to `sink` —
/// the brute-force inner loop. With a tiled GoldFinger kernel the sweep is
/// register-blocked: tail rows are read as one contiguous,
/// prefetch-friendly stream and compared against a cached block of rows.
/// Exactly `len·(len−1)/2` similarities are computed, each pair once (the
/// visit order is kernel-specific); the caller flushes that count in one
/// `add_comparisons`.
pub fn pairwise<K: SimKernel>(kernel: &K, sink: impl FnMut(u32, u32, f32)) {
    kernel.sweep_pairs(sink);
}

/// Streams the similarity of row `i` against every row in `others` to
/// `sink` — the one-vs-many shape of greedy candidate evaluation and of
/// query-layer lookups. Computes exactly `others.len()` similarities.
pub fn one_vs_many<K: SimKernel>(
    kernel: &K,
    i: u32,
    others: &[u32],
    mut sink: impl FnMut(u32, f32),
) {
    for &j in others {
        sink(j, kernel.sim(i, j));
    }
}

/// Exact-Jaccard **query** kernel: the dataset's users plus one trailing
/// external row — an out-of-sample query profile that is not a dataset
/// user. Row [`RawQueryKernel::query_row`] (`= num_users`) is the query;
/// rows below it pass through to the users, so
/// `one_vs_many(&k, k.query_row(), ids, …)` scores a query against
/// arbitrary users with no copying or remapping of the user data — the
/// shape `cnc-query`'s beam search feeds per expanded node (the ROADMAP
/// "one-vs-many batching in the query layer" item).
#[derive(Clone, Copy)]
pub struct RawQueryKernel<'a> {
    dataset: &'a Dataset,
    query: &'a [u32],
}

impl<'a> RawQueryKernel<'a> {
    /// A kernel over `dataset`'s users with the (sorted) `query` profile
    /// as the external trailing row.
    pub fn new(dataset: &'a Dataset, query: &'a [u32]) -> Self {
        RawQueryKernel { dataset, query }
    }

    /// The external row's index (== the number of user rows).
    #[inline]
    pub fn query_row(&self) -> u32 {
        self.dataset.num_users() as u32
    }

    #[inline]
    fn profile(&self, i: u32) -> &[u32] {
        if i == self.query_row() {
            self.query
        } else {
            self.dataset.profile(i)
        }
    }
}

impl SimKernel for RawQueryKernel<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.dataset.num_users() + 1
    }

    #[inline]
    fn sim(&self, i: u32, j: u32) -> f32 {
        Jaccard::similarity(self.profile(i), self.profile(j)) as f32
    }
}

/// Fixed-width GoldFinger query kernel: contiguous user fingerprint rows
/// plus one external query fingerprint as the trailing row (see
/// [`RawQueryKernel`] for the row convention). The query row is built
/// once per query with [`GoldFinger::fingerprint_profile`]; every score
/// is then the same fully-unrolled AND/OR/popcount sweep as the
/// fixed-width cluster kernels, bit-identical to
/// [`GoldFinger::estimate`] narrowed to `f32`.
#[derive(Clone, Copy)]
pub struct GoldFingerQueryKernel<'a, const W: usize> {
    words: &'a [u64],
    query: &'a [u64; W],
}

impl<'a, const W: usize> GoldFingerQueryKernel<'a, W> {
    /// A kernel over a raw word slice (length must be a multiple of `W`)
    /// with `query` as the external row.
    ///
    /// # Panics
    /// Panics if `W == 0` or the slice length is not a multiple of `W`.
    pub fn new(words: &'a [u64], query: &'a [u64; W]) -> Self {
        assert!(W > 0, "fingerprint width must be positive");
        assert!(words.len().is_multiple_of(W), "word slice is not a whole number of {W}-word rows");
        GoldFingerQueryKernel { words, query }
    }

    /// A kernel whose user rows are the fingerprinted users of `gf`.
    ///
    /// # Panics
    /// Panics if `gf` was not built with `W` words per user.
    pub fn over(gf: &'a GoldFinger, query: &'a [u64; W]) -> Self {
        assert_eq!(gf.words_per_user(), W, "fingerprint width mismatch");
        Self::new(gf.words(), query)
    }

    /// The external row's index (== the number of user rows).
    #[inline]
    pub fn query_row(&self) -> u32 {
        (self.words.len() / W) as u32
    }

    #[inline(always)]
    fn row(&self, i: u32) -> &[u64; W] {
        if i == self.query_row() {
            self.query
        } else {
            let base = i as usize * W;
            self.words[base..base + W].try_into().expect("row is exactly W words")
        }
    }
}

impl<const W: usize> SimKernel for GoldFingerQueryKernel<'_, W> {
    #[inline]
    fn len(&self) -> usize {
        self.query_row() as usize + 1
    }

    #[inline(always)]
    fn sim(&self, i: u32, j: u32) -> f32 {
        sim_words_fixed::<W>(self.row(i), self.row(j))
    }
}

/// Dynamic-width GoldFinger query kernel — the fallback for widths
/// without a fixed-`W` specialization.
#[derive(Clone, Copy)]
pub struct GoldFingerDynQueryKernel<'a> {
    words: &'a [u64],
    words_per_user: usize,
    query: &'a [u64],
}

impl<'a> GoldFingerDynQueryKernel<'a> {
    /// A kernel over a raw word slice with `words_per_user` words per row
    /// and `query` as the external row.
    ///
    /// # Panics
    /// Panics if `words_per_user` is zero, does not divide the slice, or
    /// does not match the query row's width.
    pub fn new(words: &'a [u64], words_per_user: usize, query: &'a [u64]) -> Self {
        assert!(words_per_user > 0, "fingerprint width must be positive");
        assert!(
            words.len().is_multiple_of(words_per_user),
            "word slice is not a whole number of rows"
        );
        assert_eq!(query.len(), words_per_user, "query fingerprint width mismatch");
        GoldFingerDynQueryKernel { words, words_per_user, query }
    }

    /// The external row's index (== the number of user rows).
    #[inline]
    pub fn query_row(&self) -> u32 {
        (self.words.len() / self.words_per_user) as u32
    }

    #[inline]
    fn row(&self, i: u32) -> &[u64] {
        if i == self.query_row() {
            self.query
        } else {
            let base = i as usize * self.words_per_user;
            &self.words[base..base + self.words_per_user]
        }
    }
}

impl SimKernel for GoldFingerDynQueryKernel<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.query_row() as usize + 1
    }

    #[inline]
    fn sim(&self, i: u32, j: u32) -> f32 {
        sim_words(self.row(i), self.row(j))
    }
}

/// Runs `solver` against the query-extended fixed-width specialization
/// matching `words_per_user` — the query-layer analogue of
/// [`solve_words`], sharing its dispatch table. The kernel handed to the
/// solver has the user rows at `0..n` and the query at row `n`
/// (`kernel.len() - 1`).
///
/// # Panics
/// Panics if `query.len() != words_per_user` or `words` is ragged.
pub fn solve_query_words<S: SimSolve>(
    words: &[u64],
    words_per_user: usize,
    query: &[u64],
    solver: S,
) -> S::Output {
    assert_eq!(query.len(), words_per_user, "query fingerprint width mismatch");
    macro_rules! fixed {
        ($w:literal) => {
            solver.run(&GoldFingerQueryKernel::<$w>::new(
                words,
                query.try_into().expect("width checked above"),
            ))
        };
    }
    match words_per_user {
        1 => fixed!(1),
        16 => fixed!(16),
        64 => fixed!(64),
        128 => fixed!(128),
        _ => solver.run(&GoldFingerDynQueryKernel::new(words, words_per_user, query)),
    }
}

/// The number of unordered pairs of an `n`-row kernel — the comparison
/// count a full [`pairwise`] sweep flushes.
#[inline]
pub fn pair_count(n: usize) -> u64 {
    let n = n as u64;
    n * n.saturating_sub(1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{SimilarityBackend, SimilarityData};
    use cnc_dataset::SyntheticConfig;

    fn dataset() -> Dataset {
        let mut cfg = SyntheticConfig::small(91);
        cfg.num_users = 120;
        cfg.num_items = 200;
        cfg.mean_profile = 18.0;
        cfg.min_profile = 4;
        cfg.generate()
    }

    #[test]
    fn raw_kernel_matches_scalar_oracle() {
        let ds = dataset();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let kernel = RawKernel::new(&ds);
        assert_eq!(kernel.len(), ds.num_users());
        for u in (0..100u32).step_by(7) {
            for v in (1..100u32).step_by(13) {
                assert_eq!(kernel.sim(u, v).to_bits(), sim.sim(u, v).to_bits());
            }
        }
    }

    #[test]
    fn fixed_width_kernels_match_scalar_oracle() {
        let ds = dataset();
        for (bits, w) in [(64usize, 1usize), (1024, 16), (4096, 64), (8192, 128)] {
            let sim = SimilarityData::build(SimilarityBackend::GoldFinger { bits, seed: 21 }, &ds);
            let gf = sim.goldfinger().unwrap();
            assert_eq!(gf.words_per_user(), w);
            let dynk = GoldFingerDynKernel::over(gf);
            for u in (0..60u32).step_by(11) {
                for v in (1..60u32).step_by(7) {
                    let expect = sim.sim(u, v).to_bits();
                    assert_eq!(dynk.sim(u, v).to_bits(), expect, "dyn kernel, {bits} bits");
                    let got = match w {
                        1 => GoldFingerKernel::<1>::over(gf).sim(u, v),
                        16 => GoldFingerKernel::<16>::over(gf).sim(u, v),
                        64 => GoldFingerKernel::<64>::over(gf).sim(u, v),
                        128 => GoldFingerKernel::<128>::over(gf).sim(u, v),
                        _ => unreachable!(),
                    };
                    assert_eq!(got.to_bits(), expect, "fixed kernel, {bits} bits");
                }
            }
        }
    }

    /// Drives the safe callers of the AVX-512 blocks (on a host that has
    /// them; the portable path elsewhere) at every monomorphized width and
    /// every row count from 0 to 17, around the 8-row groups and blocks:
    /// each pair is visited once and is bit-equal to the scalar kernel,
    /// 0/0 pairs of empty rows included.
    #[test]
    fn simd_sweeps_match_the_scalar_kernel_at_group_edges() {
        fn check<const W: usize>() {
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ W as u64;
            let words: Vec<u64> = (0..17 * W)
                .map(|at| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    // Rows 3 and 11 stay empty.
                    if matches!(at / W, 3 | 11) {
                        0
                    } else {
                        state >> (state % 64)
                    }
                })
                .collect();
            let scalar = GoldFingerDynKernel::new(&words, W);
            for n in 0..=17usize {
                let kernel = GoldFingerKernel::<W>::new(&words[..n * W]);
                let mut seen = vec![false; n * n];
                kernel.sweep_pairs(|i, j, s| {
                    let (lo, hi) = (i.min(j) as usize, i.max(j) as usize);
                    assert!(lo < hi && !seen[lo * n + hi], "W={W} n={n}: pair ({i}, {j})");
                    seen[lo * n + hi] = true;
                    assert_eq!(s.to_bits(), scalar.sim(i, j).to_bits(), "W={W} n={n}: ({i}, {j})");
                });
                let visited = seen.iter().filter(|&&pair| pair).count() as u64;
                assert_eq!(visited, pair_count(n), "W={W} n={n}: pairs visited");
                for i in 0..n as u32 {
                    let mut next = i + 1;
                    kernel.sweep_row(i, |j, s| {
                        assert_eq!(j, next, "W={W} n={n}: row {i} skipped or repeated");
                        assert_eq!(
                            s.to_bits(),
                            scalar.sim(i, j).to_bits(),
                            "W={W} n={n}: ({i}, {j})"
                        );
                        next += 1;
                    });
                    assert_eq!(next as usize, n, "W={W} n={n}: row {i} cut short");
                }
            }
        }
        check::<1>();
        check::<16>();
        check::<64>();
        check::<128>();
    }

    #[test]
    fn tile_rows_match_fingerprints_and_kernels_agree() {
        let ds = dataset();
        let gf = GoldFinger::build(&ds, 1024, 5);
        let users: Vec<UserId> = (0..ds.num_users() as u32).step_by(3).collect();
        let tile = ClusterTile::gather(&gf, &users);
        assert_eq!(tile.len(), users.len());
        for (i, &u) in users.iter().enumerate() {
            assert_eq!(tile.row(i), gf.fingerprint(u));
        }
        let fixed = tile.kernel::<16>();
        let global = GoldFingerKernel::<16>::over(&gf);
        for i in 0..users.len() as u32 {
            for j in 0..users.len() as u32 {
                let expect = global.sim(users[i as usize], users[j as usize]).to_bits();
                assert_eq!(fixed.sim(i, j).to_bits(), expect);
                assert_eq!(tile.dyn_kernel().sim(i, j).to_bits(), expect);
            }
        }
    }

    #[test]
    fn tile_solve_picks_a_working_specialization() {
        struct Sum;
        impl SimSolve for Sum {
            type Output = f64;
            fn run<K: SimKernel>(self, kernel: &K) -> f64 {
                let mut total = 0.0;
                pairwise(kernel, |_, _, s| total += s as f64);
                total
            }
        }
        let ds = dataset();
        let users: Vec<UserId> = (0..40).collect();
        // 192 bits = 3 words: no fixed specialization, must hit the
        // dynamic fallback and still agree with the scalar oracle.
        for bits in [64usize, 192, 1024] {
            let gf = GoldFinger::build(&ds, bits, 2);
            let tile = ClusterTile::gather(&gf, &users);
            let got = tile.solve(Sum);
            let mut expect = 0.0;
            for i in 0..users.len() {
                for j in (i + 1)..users.len() {
                    expect += gf.estimate(users[i], users[j]) as f32 as f64;
                }
            }
            assert!((got - expect).abs() < 1e-9, "{bits} bits: {got} vs {expect}");
        }
    }

    #[test]
    fn pairwise_covers_each_pair_exactly_once() {
        let ds = dataset();
        let kernel = RawKernel::new(&ds);
        let users: Vec<UserId> = (0..25).collect();
        let cluster = Remap::new(&users, kernel);
        let mut seen = std::collections::BTreeSet::new();
        pairwise(&cluster, |i, j, _| {
            assert!(i < j);
            assert!(seen.insert((i, j)), "pair ({i}, {j}) visited twice");
        });
        assert_eq!(seen.len() as u64, pair_count(users.len()));
    }

    #[test]
    fn one_vs_many_matches_per_pair_sims() {
        let ds = dataset();
        let gf = GoldFinger::build(&ds, 1024, 3);
        let kernel = GoldFingerKernel::<16>::over(&gf);
        let others: Vec<u32> = (1..50).step_by(3).collect();
        let mut got = Vec::new();
        one_vs_many(&kernel, 0, &others, |j, s| got.push((j, s.to_bits())));
        let expect: Vec<(u32, u32)> =
            others.iter().map(|&j| (j, kernel.sim(0, j).to_bits())).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn raw_query_kernel_scores_like_scalar_jaccard() {
        let ds = dataset();
        let query: Vec<u32> = vec![3, 17, 40, 77, 150];
        let kernel = RawQueryKernel::new(&ds, &query);
        assert_eq!(kernel.len(), ds.num_users() + 1);
        assert_eq!(kernel.query_row() as usize, ds.num_users());
        let others: Vec<u32> = (0..ds.num_users() as u32).step_by(9).collect();
        let mut got = Vec::new();
        one_vs_many(&kernel, kernel.query_row(), &others, |j, s| got.push((j, s.to_bits())));
        let expect: Vec<(u32, u32)> = others
            .iter()
            .map(|&u| (u, (Jaccard::similarity(&query, ds.profile(u)) as f32).to_bits()))
            .collect();
        assert_eq!(got, expect);
        // User rows pass through untouched.
        assert_eq!(
            kernel.sim(2, 5).to_bits(),
            (Jaccard::similarity(ds.profile(2), ds.profile(5)) as f32).to_bits()
        );
    }

    #[test]
    fn goldfinger_query_kernels_score_like_an_in_dataset_row() {
        let ds = dataset();
        let query: Vec<u32> = ds.profile(7).iter().map(|&i| i.saturating_sub(1)).collect();
        let mut query = query;
        query.sort_unstable();
        query.dedup();
        // Reference: append the query as a real user and fingerprint the
        // grown dataset — per-user rows are independent, so the external
        // row must match the built one exactly.
        let mut profiles: Vec<Vec<u32>> = ds.iter().map(|(_, p)| p.to_vec()).collect();
        profiles.push(query.clone());
        let grown = Dataset::from_profiles(profiles, 0);
        for bits in [64usize, 192, 1024] {
            let gf = GoldFinger::build(&ds, bits, 23);
            let reference = GoldFinger::build(&grown, bits, 23);
            let qrow_words = gf.fingerprint_profile(&query);
            assert_eq!(qrow_words, reference.fingerprint(ds.num_users() as UserId));
            let others: Vec<u32> = (0..ds.num_users() as u32).step_by(7).collect();
            struct Score<'a> {
                others: &'a [u32],
            }
            impl SimSolve for Score<'_> {
                type Output = Vec<(u32, u32)>;
                fn run<K: SimKernel>(self, kernel: &K) -> Self::Output {
                    let qrow = (kernel.len() - 1) as u32;
                    let mut out = Vec::new();
                    one_vs_many(kernel, qrow, self.others, |j, s| out.push((j, s.to_bits())));
                    out
                }
            }
            let got = solve_query_words(
                gf.words(),
                gf.words_per_user(),
                &qrow_words,
                Score { others: &others },
            );
            let expect: Vec<(u32, u32)> = others
                .iter()
                .map(|&u| (u, (reference.estimate(ds.num_users() as UserId, u) as f32).to_bits()))
                .collect();
            assert_eq!(got, expect, "{bits} bits");
        }
    }

    #[test]
    #[should_panic(expected = "query fingerprint width mismatch")]
    fn mismatched_query_width_panics() {
        let ds = dataset();
        let gf = GoldFinger::build(&ds, 128, 1);
        struct Noop;
        impl SimSolve for Noop {
            type Output = ();
            fn run<K: SimKernel>(self, _: &K) {}
        }
        solve_query_words(gf.words(), gf.words_per_user(), &[0u64; 3], Noop);
    }

    #[test]
    fn remap_restricts_to_cluster_rows() {
        let ds = dataset();
        let users: Vec<UserId> = vec![5, 17, 2, 40];
        let cluster = Remap::new(&users, RawKernel::new(&ds));
        assert_eq!(cluster.len(), 4);
        let direct = Jaccard::similarity(ds.profile(17), ds.profile(40)) as f32;
        assert_eq!(cluster.sim(1, 3).to_bits(), direct.to_bits());
    }

    #[test]
    fn empty_and_singleton_tiles_are_fine() {
        let ds = dataset();
        let gf = GoldFinger::build(&ds, 128, 1);
        let empty = ClusterTile::gather(&gf, &[]);
        assert!(empty.is_empty());
        let one = ClusterTile::gather(&gf, &[3]);
        assert_eq!(one.len(), 1);
        let mut pairs = 0;
        pairwise(&one.dyn_kernel(), |_, _, _| pairs += 1);
        assert_eq!(pairs, 0);
        assert_eq!(pair_count(0), 0);
        assert_eq!(pair_count(1), 0);
        assert_eq!(pair_count(5), 10);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_fixed_width_panics() {
        let ds = dataset();
        let gf = GoldFinger::build(&ds, 1024, 1);
        let _ = GoldFingerKernel::<4>::over(&gf);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::backend::{SimilarityBackend, SimilarityData};
    use proptest::prelude::*;

    fn profiles_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
        proptest::collection::vec(
            proptest::collection::btree_set(0u32..400, 0..40)
                .prop_map(|s| s.into_iter().collect::<Vec<_>>()),
            2..12,
        )
    }

    proptest! {
        /// Tiled + specialized kernels are bit-identical to the scalar
        /// `SimilarityData::sim` path on random profiles and widths.
        #[test]
        fn kernels_bit_identical_to_scalar_path(
            profiles in profiles_strategy(),
            width_index in 0usize..6,
            seed in 0u64..40,
        ) {
            let bits = [64usize, 192, 1024, 2048, 4096, 8192][width_index];
            let ds = Dataset::from_profiles(profiles, 0);
            let sim = SimilarityData::build(
                SimilarityBackend::GoldFinger { bits, seed }, &ds);
            let gf = sim.goldfinger().unwrap();
            let users: Vec<UserId> = (0..ds.num_users() as u32).collect();
            let tile = ClusterTile::gather(gf, &users);
            struct Collect;
            impl SimSolve for Collect {
                type Output = Vec<(u32, u32, u32)>;
                fn run<K: SimKernel>(self, kernel: &K) -> Self::Output {
                    let mut out = Vec::new();
                    pairwise(kernel, |i, j, s| out.push((i, j, s.to_bits())));
                    out
                }
            }
            for (i, j, bits_got) in tile.solve(Collect) {
                let expect = sim.sim(users[i as usize], users[j as usize]);
                prop_assert_eq!(bits_got, expect.to_bits());
            }
        }

        /// The raw kernel is bit-identical to the scalar raw oracle.
        #[test]
        fn raw_kernel_bit_identical_to_scalar_path(profiles in profiles_strategy()) {
            let ds = Dataset::from_profiles(profiles, 0);
            let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
            let kernel = RawKernel::new(&ds);
            let n = ds.num_users() as u32;
            for i in 0..n {
                for j in (i + 1)..n {
                    prop_assert_eq!(kernel.sim(i, j).to_bits(), sim.sim(i, j).to_bits());
                }
            }
        }

        /// Gathered tiles mirror the fingerprints they were gathered from,
        /// whatever the (possibly repeating) user subset.
        #[test]
        fn tile_gather_mirrors_fingerprints(
            profiles in profiles_strategy(),
            picks in proptest::collection::vec(0usize..12, 0..20),
        ) {
            let ds = Dataset::from_profiles(profiles, 0);
            let gf = GoldFinger::build(&ds, 256, 7);
            let users: Vec<UserId> = picks.into_iter()
                .map(|p| (p % ds.num_users()) as u32)
                .collect();
            let tile = ClusterTile::gather(&gf, &users);
            prop_assert_eq!(tile.len(), users.len());
            for (i, &u) in users.iter().enumerate() {
                prop_assert_eq!(tile.row(i), gf.fingerprint(u));
            }
        }
    }
}
