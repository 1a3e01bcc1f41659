//! Seeded synthetic dataset generators calibrated to the paper's Table I.
//!
//! The original evaluation uses six downloadable datasets (MovieLens 1M/10M/
//! 20M, AmazonMovies, DBLP, Gowalla). Those downloads are not available in
//! this environment, so — per the reproduction's substitution rule — we
//! generate synthetic datasets that reproduce the three properties the
//! algorithms are actually sensitive to:
//!
//! 1. **Scale and sparsity** (`|U|`, `|I|`, avg `|P_u|`, density): determines
//!    the cost of a similarity computation and the dimensionality that makes
//!    MinHash-style LSH fragment;
//! 2. **Item-popularity skew** (Zipf): popular items produce the unbalanced
//!    FastRandomHash clusters that recursive splitting (§II-D) absorbs;
//! 3. **Community structure** (latent user communities with item affinity):
//!    gives the KNN graph meaningful locality, so greedy convergence and
//!    clustering quality behave like on real data.
//!
//! The generative model: each item belongs to one latent community and has a
//! global Zipf popularity. Each user belongs to one community and draws each
//! profile entry from their own community's item pool with probability
//! `affinity`, and from the global pool otherwise. Profile sizes are
//! log-normal with the calibrated mean, floored at the paper's 20-rating
//! cold-start cutoff.
//!
//! The output is a pure function of the [`SyntheticConfig`] and the vendored
//! SplitMix64 stream (`rand::rngs::SmallRng`): every draw is taken in a
//! fixed order, and a user's profile is the set of distinct items drawn
//! before it reaches its target size or its attempt budget, sorted. Every
//! recorded quality figure depends on that stream, so the workspace's
//! `synthetic_datasets_match_golden_digests` test pins it: a digest of
//! each preset's output at three seeds, recorded once and compared bit for
//! bit. A faster generator must consume the stream draw for draw.
//!
//! It does so a block ahead. A draw reads three words: the affinity coin,
//! the alias column and the keep coin. The stream sits behind a look-ahead
//! window, and the user loop peeks the words of up to 16 draws and turns
//! them into candidate items with no data-dependent branch. The coin is the
//! integer compare `discrete.rs` proves equal to the float one, and it
//! selects the global or community table by index; the keep coin selects
//! the column's item or its alias. The dedup then walks the candidates in
//! order and consumes only the words of the draws up to the one that
//! completes the profile. The rest stay in the window, where the next
//! user's size draw reads them first, so every word goes where the
//! one-draw-at-a-time loop sent it.
//!
//! Two more costs per draw go without changing a bit. The column is
//! `word % n`, which the table computes by multiplying with its stored
//! reciprocal instead of a hardware division; `discrete.rs` gives the
//! bound that makes the multiply-shift exact for every word. And the
//! window refills in bulk: SplitMix64's `i`-th next word is a pure
//! function of the state plus `i` increments, so `SmallRng::fill_words`
//! computes the words side by side in vector lanes, and they and the state
//! it leaves are those of as many `next_u64` calls.
//!
//! The draw loop is serial: where a user's draws start in the stream
//! depends on how many draws the previous user's dedup kept. What follows
//! it is not, and runs on a second core. The loop leaves each profile
//! unsorted in a chunk buffer of `CHUNK` users and hands every full
//! chunk over a bounded channel to one helper thread, scoped to the call.
//! The helper sorts each profile in place, appends it to the CSR and sends
//! the emptied buffer back for reuse. The channel is FIFO and the sort is
//! deterministic, so the output does not depend on how the two threads are
//! scheduled, one core included.

use crate::dataset::{Dataset, DatasetBuilder, ItemId};
use crate::discrete::{coin_threshold, AliasTable};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngExt, SeedableRng};
use std::sync::mpsc;
use std::{hint, mem, thread};

/// Parameters of the latent-community generator.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SyntheticConfig {
    /// Number of users `|U|`.
    pub num_users: usize,
    /// Number of items `|I|` (the dataset dimensionality).
    pub num_items: usize,
    /// Number of latent communities shared by users and items.
    pub communities: usize,
    /// Mean profile size (paper Table I column `|P_u|`).
    pub mean_profile: f64,
    /// Log-normal shape parameter of profile sizes (0 = constant size).
    pub profile_sigma: f64,
    /// Minimum profile size; the paper keeps users with ≥ 20 ratings.
    pub min_profile: usize,
    /// Zipf exponent of global item popularity.
    pub zipf_exponent: f64,
    /// Probability that a profile entry is drawn from the user's own
    /// community pool (vs the global pool). 0 = no structure, 1 = disjoint
    /// communities.
    pub affinity: f64,
    /// RNG seed; equal configs generate bit-identical datasets.
    pub seed: u64,
}

impl SyntheticConfig {
    /// A small, quick config for tests and examples: 2 000 users, 1 000
    /// items, 16 communities.
    pub fn small(seed: u64) -> Self {
        SyntheticConfig {
            num_users: 2_000,
            num_items: 1_000,
            communities: 16,
            mean_profile: 40.0,
            profile_sigma: 0.5,
            min_profile: 20,
            zipf_exponent: 1.0,
            affinity: 0.7,
            seed,
        }
    }

    /// The latent community of `user` under this config (ground truth for
    /// classification experiments): users are assigned round-robin.
    pub fn community_of(&self, user: u32) -> u32 {
        (user as usize % self.communities) as u32
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        assert!(self.num_users > 0, "num_users must be positive");
        assert!(self.num_items > 0, "num_items must be positive");
        assert!(self.communities > 0, "communities must be positive");
        assert!(
            self.communities <= self.num_items,
            "communities must not exceed num_items: every community pool needs an item"
        );
        assert!((0.0..=1.0).contains(&self.affinity), "affinity must be in [0, 1]");

        let mut rng = SmallRng::seed_from_u64(self.seed);
        let (global, communities) = self.popularity(&mut rng);
        let mut stream = Lookahead::new(rng);
        // `random::<f64>() < affinity` as an integer compare on the word.
        let affinity = coin_threshold(self.affinity);

        // `stamp[item] == user` iff `item` was already drawn for `user`.
        let mut stamp = vec![u32::MAX; self.num_items];
        thread::scope(|scope| {
            let (full, full_rx) = mpsc::sync_channel::<Chunk>(IN_FLIGHT);
            // Unbounded, so the assembler never waits to hand a buffer
            // back. The draw loop makes a buffer only when none is waiting
            // here, so at most `IN_FLIGHT + 3` ever exist.
            let (empty_tx, empty) = mpsc::channel::<Chunk>();
            let assembler = scope.spawn(move || {
                let mut builder = DatasetBuilder::with_capacity(self.num_users);
                for mut chunk in full_rx {
                    let mut start = 0;
                    for &len in &chunk.lens {
                        let profile = &mut chunk.items[start..start + len as usize];
                        profile.sort_unstable();
                        builder.push_sorted_profile(profile);
                        start += len as usize;
                    }
                    chunk.items.clear();
                    chunk.lens.clear();
                    // Fails only if the draw loop panicked: the buffer is
                    // then dropped.
                    let _ = empty_tx.send(chunk);
                }
                builder.build_with_min_items(self.num_items as u32)
            });

            // Holds the largest profile the size clamp allows, and stays in
            // cache: each profile is copied to the chunk once it is drawn.
            let mut profile: Vec<ItemId> = vec![0; self.num_items / 2 + 1];
            let mut chunk = Chunk::default();
            for user in 0..self.num_users {
                // The affinity coin indexes this pair: the global table, or
                // the user's community table.
                let tables = [&global, &communities[user % self.communities]];
                let target = self.sample_profile_len(&mut stream);
                // Rejection loop: draw until `target` distinct items or the
                // attempt budget is exhausted (protects degenerate configs
                // where the pool is barely larger than the target).
                let (mut len, mut attempts) = (0usize, 0usize);
                let budget = target * 30 + 100;
                while len < target && attempts < budget {
                    // Draw a block ahead without a data-dependent branch...
                    let n = BLOCK.min(budget - attempts);
                    let mut block = [0 as ItemId; BLOCK];
                    let ahead = stream.peek(3 * n);
                    for (item, words) in block.iter_mut().zip(ahead.chunks_exact(3)) {
                        let table = tables[(words[0] >> 11 < affinity) as usize];
                        let column = table.columns()[table.index(words[1])];
                        *item = hint::select_unpredictable(
                            words[2] >> 11 < column.keep,
                            column.own,
                            column.alias,
                        );
                    }
                    // ...then keep its draws up to the one that completes
                    // the profile. Branch-free dedup: every draw is written,
                    // only a fresh one advances past its slot.
                    let mut used = n;
                    for (draw, &item) in block[..n].iter().enumerate() {
                        let fresh = stamp[item as usize] != user as u32;
                        stamp[item as usize] = user as u32;
                        profile[len] = item;
                        len += fresh as usize;
                        if len == target {
                            used = draw + 1;
                            break;
                        }
                    }
                    // The words of the draws past it stay in the window.
                    stream.consume(3 * used);
                    attempts += used;
                }
                chunk.items.extend_from_slice(&profile[..len]);
                chunk.lens.push(len as u32);
                if chunk.lens.len() == CHUNK {
                    let next = empty.try_recv().unwrap_or_default();
                    // Fails only if the assembler panicked: its join below
                    // re-raises the panic.
                    if full.send(mem::replace(&mut chunk, next)).is_err() {
                        break;
                    }
                }
            }
            if !chunk.lens.is_empty() {
                let _ = full.send(chunk);
            }
            drop(full);
            assembler.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    }

    /// The item distributions, drawn from the head of the stream: the
    /// global Zipf popularity, and an alias table per community that draws
    /// from the community's item pool.
    fn popularity(&self, rng: &mut SmallRng) -> (AliasTable, Vec<AliasTable>) {
        // Global popularity: item `i`'s Zipf rank is a random permutation of
        // ids, so popularity is independent of the id ordering.
        let mut ranks: Vec<u32> = (0..self.num_items as u32).collect();
        ranks.shuffle(rng);
        let weights: Vec<f64> =
            ranks.iter().map(|&r| ((r + 1) as f64).powf(-self.zipf_exponent)).collect();
        let global = AliasTable::new(&weights);

        // Assign items to communities round-robin over a shuffled order, so
        // every community pool is non-empty and popularity mixes across
        // communities.
        let mut item_order: Vec<u32> = (0..self.num_items as u32).collect();
        item_order.shuffle(rng);
        let mut pools: Vec<Vec<ItemId>> = vec![Vec::new(); self.communities];
        for (pos, &item) in item_order.iter().enumerate() {
            pools[pos % self.communities].push(item);
        }
        let communities = pools
            .into_iter()
            .map(|pool| {
                let w: Vec<f64> = pool.iter().map(|&i| weights[i as usize]).collect();
                AliasTable::labelled(&w, |index| pool[index as usize])
            })
            .collect();
        (global, communities)
    }

    /// Draws a log-normal profile size with mean `mean_profile`, clamped to
    /// `[min_profile, num_items / 2]`.
    fn sample_profile_len(&self, rng: &mut impl Rng) -> usize {
        let sigma = self.profile_sigma;
        // Box–Muller standard normal.
        let u1: f64 = rng.random::<f64>().max(1e-12f64);
        let u2: f64 = rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        // exp(μ + σz) with μ chosen so the log-normal mean is mean_profile.
        let mu = self.mean_profile.ln() - sigma * sigma / 2.0;
        let len = (mu + sigma * z).exp().round() as usize;
        len.clamp(self.min_profile.min(self.num_items / 2), (self.num_items / 2).max(1))
    }
}

/// Draws the generator computes ahead per block; each reads three words.
const BLOCK: usize = 16;

/// Profiles the draw loop hands the assembler thread at a time.
const CHUNK: usize = 256;

/// Full chunks queued for the assembler before the draw loop waits. Deep,
/// so that a stall of the assembler's core (another process taking its
/// turn) does not stall the draw loop; buffers past the two or three in
/// use are made only while the assembler is behind.
const IN_FLIGHT: usize = 64;

/// Unsorted profiles on their way to the assembler: `lens[i]` items each,
/// back to back in `items`.
#[derive(Default)]
struct Chunk {
    items: Vec<ItemId>,
    lens: Vec<u32>,
}

/// The SplitMix64 stream read through a window of words drawn ahead of
/// the reader. Words leave the window in stream order, and a word peeked
/// but not consumed stays for the next read, so the reader sees the
/// stream `SmallRng` yields, word for word.
struct Lookahead {
    rng: SmallRng,
    words: [u64; 3 * BLOCK],
    /// The window: `words[start..end]` are the stream's next words.
    start: usize,
    end: usize,
}

impl Lookahead {
    fn new(rng: SmallRng) -> Self {
        Lookahead { rng, words: [0; 3 * BLOCK], start: 0, end: 0 }
    }

    /// The stream's next `n` words (at most `3 · BLOCK`), left in place.
    fn peek(&mut self, n: usize) -> &[u64] {
        if self.end - self.start < n {
            self.words.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            self.rng.fill_words(&mut self.words[self.end..]);
            self.end = self.words.len();
        }
        &self.words[self.start..self.start + n]
    }

    /// Drops the next `n` words, which the caller has peeked.
    fn consume(&mut self, n: usize) {
        self.start += n;
    }
}

impl Rng for Lookahead {
    fn next_u64(&mut self) -> u64 {
        let word = self.peek(1)[0];
        self.consume(1);
        word
    }
}

/// The six datasets of the paper's Table I, as calibration presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetProfile {
    /// MovieLens 1M: 6 038 users, 3 533 items, avg profile 95.3 (dense).
    MovieLens1M,
    /// MovieLens 10M: 69 816 users, 10 472 items, avg profile 84.3 (dense).
    MovieLens10M,
    /// MovieLens 20M: 138 362 users, 22 884 items, avg profile 88.1.
    MovieLens20M,
    /// AmazonMovies: 57 430 users, 171 356 items, avg profile 56.8 (sparse).
    AmazonMovies,
    /// DBLP co-authorship: 18 889 users, 203 030 items, avg profile 36.7.
    Dblp,
    /// Gowalla social network: 20 270 users, 135 540 items, avg profile 54.6.
    Gowalla,
}

impl DatasetProfile {
    /// All six presets, in the paper's Table I order.
    pub const ALL: [DatasetProfile; 6] = [
        DatasetProfile::MovieLens1M,
        DatasetProfile::MovieLens10M,
        DatasetProfile::MovieLens20M,
        DatasetProfile::AmazonMovies,
        DatasetProfile::Dblp,
        DatasetProfile::Gowalla,
    ];

    /// The paper's short name (used in table rows).
    pub fn name(self) -> &'static str {
        match self {
            DatasetProfile::MovieLens1M => "ml1M",
            DatasetProfile::MovieLens10M => "ml10M",
            DatasetProfile::MovieLens20M => "ml20M",
            DatasetProfile::AmazonMovies => "AM",
            DatasetProfile::Dblp => "DBLP",
            DatasetProfile::Gowalla => "GW",
        }
    }

    /// Published `(users, items, mean |P_u|)` from Table I.
    pub fn published_shape(self) -> (usize, usize, f64) {
        match self {
            DatasetProfile::MovieLens1M => (6_038, 3_533, 95.28),
            DatasetProfile::MovieLens10M => (69_816, 10_472, 84.30),
            DatasetProfile::MovieLens20M => (138_362, 22_884, 88.14),
            DatasetProfile::AmazonMovies => (57_430, 171_356, 56.82),
            DatasetProfile::Dblp => (18_889, 203_030, 36.67),
            DatasetProfile::Gowalla => (20_270, 135_540, 54.64),
        }
    }

    /// Builds a generator config scaled by `scale ∈ (0, 1]`.
    ///
    /// Users shrink linearly with `scale`; items shrink with `√scale` and
    /// the mean profile size is preserved. The square-root law keeps the
    /// dense-vs-sparse contrast between the presets close to the published
    /// densities (linear item scaling would inflate density by `1/scale`
    /// and wash out the sparsity effects C² and LSH are sensitive to: a
    /// tenth of the users would make the data ten times denser, and the
    /// sparse presets would stop fragmenting MinHash buckets as the
    /// paper's AM, DBLP and Gowalla do).
    pub fn config(self, scale: f64, seed: u64) -> SyntheticConfig {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let (users, items, mean_profile) = self.published_shape();
        let num_users = ((users as f64 * scale) as usize).max(64);
        let num_items = ((items as f64 * scale.sqrt()) as usize).max(128);
        // Dense MovieLens-style data has stronger head concentration than
        // the sparse datasets (AM/DBLP/GW), whose long item tail is what
        // fragments MinHash-based LSH.
        let (zipf_exponent, affinity) = match self {
            DatasetProfile::MovieLens1M
            | DatasetProfile::MovieLens10M
            | DatasetProfile::MovieLens20M => (1.05, 0.65),
            DatasetProfile::AmazonMovies => (0.85, 0.75),
            DatasetProfile::Dblp => (0.75, 0.85),
            DatasetProfile::Gowalla => (0.80, 0.80),
        };
        let communities = (num_users / 400).clamp(8, 256);
        // The paper's ≥20-rating filter applies *before* binarization, so
        // sparse review datasets (AM) keep users whose positive-only
        // profiles are small; the resulting profile-size spread is what
        // concentrates MinHash/LSH buckets on popular items. Dense
        // MovieLens-style presets keep the ≥20 positive floor.
        let (min_profile, profile_sigma) = match self {
            DatasetProfile::AmazonMovies => (4, 1.0),
            DatasetProfile::Dblp | DatasetProfile::Gowalla => (8, 0.8),
            _ => (20, 0.6),
        };
        SyntheticConfig {
            num_users,
            num_items,
            communities,
            mean_profile: mean_profile.min(num_items as f64 / 4.0),
            profile_sigma,
            min_profile: min_profile.min(num_items / 8).max(1),
            zipf_exponent,
            affinity,
            seed,
        }
    }

    /// Convenience: generate the scaled dataset directly.
    pub fn generate(self, scale: f64, seed: u64) -> Dataset {
        self.config(scale, seed).generate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl SyntheticConfig {
        /// The generator before stamp dedup and look-ahead: each draw is
        /// taken from the stream one word at a time, deduplicated by a
        /// binary search and kept by a sorted insert. `generate` must match
        /// it bit for bit. Also returns each user's `(target, attempts)`.
        fn generate_by_sorted_insert(&self) -> (Dataset, Vec<(usize, usize)>) {
            let mut rng = SmallRng::seed_from_u64(self.seed);
            let (global, communities) = self.popularity(&mut rng);
            let mut builder = DatasetBuilder::with_capacity(self.num_users);
            let mut draws = Vec::with_capacity(self.num_users);
            let mut profile: Vec<ItemId> = Vec::new();
            for user in 0..self.num_users {
                let community = &communities[user % self.communities];
                let target = self.sample_profile_len(&mut rng);
                profile.clear();
                let mut attempts = 0usize;
                let budget = target * 30 + 100;
                while profile.len() < target && attempts < budget {
                    attempts += 1;
                    let item = if rng.random::<f64>() < self.affinity {
                        community.sample(&mut rng)
                    } else {
                        global.sample(&mut rng)
                    };
                    if let Err(pos) = profile.binary_search(&item) {
                        profile.insert(pos, item);
                    }
                }
                builder.push_sorted_profile(&profile);
                draws.push((target, attempts));
            }
            (builder.build_with_min_items(self.num_items as u32), draws)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn stamp_dedup_matches_the_sorted_insert_reference(
            seed in 0u64..1_000_000,
            shape in (1usize..80, 1usize..300, 1usize..40),
            sizes in (1usize..120, 0usize..15, 0usize..40),
            mix in (0usize..25, 0usize..13),
        ) {
            let (num_users, num_items, communities) = shape;
            // Every community pool needs an item.
            let communities = communities.min(num_items);
            let (mean_profile, sigma_tenths, min_profile) = sizes;
            let (zipf_tenths, affinity_tenths) = mix;
            let cfg = SyntheticConfig {
                num_users,
                num_items,
                communities,
                mean_profile: mean_profile as f64,
                profile_sigma: sigma_tenths as f64 / 10.0,
                min_profile,
                zipf_exponent: zipf_tenths as f64 / 10.0,
                // 0, 0.1, …, 0.9, then 1.0 three times in thirteen.
                affinity: (affinity_tenths as f64 / 10.0).min(1.0),
                seed,
            };
            prop_assert_eq!(cfg.generate(), cfg.generate_by_sorted_insert().0, "{:?}", cfg);
        }
    }

    /// The edges of the look-ahead path and of the chunk handoff a test
    /// must reach.
    const EDGES: [&str; 6] = [
        "target reached on a block's first draw",
        "target reached on a block's last draw",
        "budget exhausted part-way through a block",
        "target of 0",
        "profile last of a full chunk",
        "profile first of a chunk after the first",
    ];

    /// How many profiles reach each of [`EDGES`], read off the
    /// reference's per-user `(target, attempts)`.
    fn edges(ds: &Dataset, draws: &[(usize, usize)]) -> [usize; 6] {
        let mut hits = [0; 6];
        for ((user, profile), &(target, attempts)) in ds.iter().zip(draws) {
            let done = profile.len() == target;
            let user = user as usize;
            let reached = [
                done && attempts % BLOCK == 1,
                done && attempts > 0 && attempts % BLOCK == 0,
                !done && attempts % BLOCK != 0,
                target == 0,
                user % CHUNK == CHUNK - 1,
                user > 0 && user.is_multiple_of(CHUNK),
            ];
            for (hit, reached) in hits.iter_mut().zip(reached) {
                *hit += reached as usize;
            }
        }
        hits
    }

    #[test]
    fn look_ahead_matches_the_reference_at_the_edges() {
        let base = SyntheticConfig {
            num_users: 300,
            num_items: 120,
            communities: 4,
            mean_profile: 29.0,
            profile_sigma: 0.0,
            min_profile: 29,
            zipf_exponent: 1.2,
            affinity: 1.0,
            seed: 5,
        };
        let cases = [
            // Pools of 30 items for 29-item profiles: draws exhaust the
            // budget of 970, ten draws into the last block, on the rare
            // tail of the pool.
            base.clone(),
            // No community structure: every draw from the global pool.
            SyntheticConfig { affinity: 0.0, ..base.clone() },
            // A one-item universe: every profile is that item.
            SyntheticConfig { num_items: 1, communities: 1, min_profile: 1, ..base.clone() },
            // One-item pools: after its first draw, every community draw
            // repeats an item.
            SyntheticConfig { num_items: 40, communities: 40, affinity: 0.9, ..base.clone() },
            // Targets of 0 and 1: a profile done before any draw, and ones
            // done on the first draw of the first block.
            SyntheticConfig {
                mean_profile: 0.5,
                profile_sigma: 0.5,
                min_profile: 0,
                ..base.clone()
            },
            // Profiles of 2 to ~200 items, ending anywhere in a block.
            SyntheticConfig {
                num_items: 800,
                mean_profile: 60.0,
                profile_sigma: 0.8,
                min_profile: 2,
                affinity: 0.6,
                ..base.clone()
            },
            // Profiles at the size clamp, half the universe.
            SyntheticConfig { mean_profile: 500.0, profile_sigma: 1.0, affinity: 0.3, ..base },
        ];
        let mut hits = [0; 6];
        for cfg in &cases {
            let (reference, draws) = cfg.generate_by_sorted_insert();
            assert_eq!(cfg.generate(), reference, "{cfg:?}");
            for (total, hit) in hits.iter_mut().zip(edges(&reference, &draws)) {
                *total += hit;
            }
        }
        for (edge, hits) in EDGES.iter().zip(hits) {
            assert!(hits > 0, "no case reached the edge: {edge}");
        }
    }

    #[test]
    fn chunk_boundaries_match_the_reference() {
        let base = SyntheticConfig {
            num_users: 1,
            num_items: 200,
            communities: 4,
            mean_profile: 12.0,
            profile_sigma: 0.8,
            min_profile: 0,
            zipf_exponent: 1.0,
            affinity: 0.7,
            seed: 9,
        };
        for num_users in [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1] {
            let cfg = SyntheticConfig { num_users, ..base.clone() };
            assert_eq!(cfg.generate(), cfg.generate_by_sorted_insert().0, "{num_users} users");
        }
    }

    /// Far more chunks than the handoff queues: a return path that could
    /// block the assembler would stall both threads here.
    #[test]
    fn many_chunks_of_tiny_profiles_match_the_reference() {
        let cfg = SyntheticConfig {
            num_users: 8 * IN_FLIGHT * CHUNK + 7,
            num_items: 64,
            communities: 4,
            mean_profile: 1.5,
            profile_sigma: 0.5,
            min_profile: 1,
            zipf_exponent: 1.0,
            affinity: 0.5,
            seed: 3,
        };
        assert_eq!(cfg.generate(), cfg.generate_by_sorted_insert().0);
    }

    #[test]
    #[should_panic(expected = "communities must not exceed num_items")]
    fn more_communities_than_items_panics() {
        SyntheticConfig {
            num_users: 10,
            num_items: 4,
            communities: 8,
            ..SyntheticConfig::small(1)
        }
        .generate();
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SyntheticConfig::small(42);
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticConfig::small(1).generate();
        let b = SyntheticConfig::small(2).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn shape_matches_config() {
        let cfg = SyntheticConfig::small(7);
        let ds = cfg.generate();
        assert_eq!(ds.num_users(), cfg.num_users);
        assert_eq!(ds.num_items(), cfg.num_items);
        ds.validate().unwrap();
    }

    #[test]
    fn mean_profile_is_close_to_target() {
        let cfg = SyntheticConfig::small(11);
        let ds = cfg.generate();
        let mean = ds.num_ratings() as f64 / ds.num_users() as f64;
        assert!(
            (mean - cfg.mean_profile).abs() / cfg.mean_profile < 0.15,
            "mean profile {mean} too far from {}",
            cfg.mean_profile
        );
    }

    #[test]
    fn min_profile_is_respected() {
        let cfg = SyntheticConfig::small(13);
        let ds = cfg.generate();
        for (_, p) in ds.iter() {
            assert!(p.len() >= cfg.min_profile, "profile of size {} < min", p.len());
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let ds = SyntheticConfig::small(17).generate();
        let mut freq = ds.item_frequencies();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let head: u32 = freq.iter().take(freq.len() / 20).sum();
        let total: u32 = freq.iter().sum();
        // Top 5% of items should hold far more than 5% of the ratings.
        assert!(head as f64 / total as f64 > 0.20, "head share {}", head as f64 / total as f64);
    }

    #[test]
    fn communities_create_structure() {
        // Same-community users must share more items on average than
        // cross-community users.
        let mut cfg = SyntheticConfig::small(19);
        cfg.num_users = 200;
        cfg.affinity = 0.9;
        let ds = cfg.generate();
        let c = cfg.communities;
        let inter = |a: &[u32], b: &[u32]| -> usize {
            let (mut i, mut j, mut n) = (0, 0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        n += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            n
        };
        let (mut same, mut same_n, mut cross, mut cross_n) = (0usize, 0usize, 0usize, 0usize);
        for u in 0..100u32 {
            for v in (u + 1)..100u32 {
                let shared = inter(ds.profile(u), ds.profile(v));
                if (u as usize) % c == (v as usize) % c {
                    same += shared;
                    same_n += 1;
                } else {
                    cross += shared;
                    cross_n += 1;
                }
            }
        }
        let same_avg = same as f64 / same_n as f64;
        let cross_avg = cross as f64 / cross_n as f64;
        assert!(
            same_avg > 2.0 * cross_avg,
            "no community structure: same {same_avg:.2} vs cross {cross_avg:.2}"
        );
    }

    #[test]
    fn presets_scale_down() {
        let ds = DatasetProfile::MovieLens1M.generate(0.05, 3);
        assert!(ds.num_users() >= 64);
        assert!(ds.num_users() < 6_038);
        ds.validate().unwrap();
    }

    #[test]
    fn all_presets_have_distinct_names() {
        let names: std::collections::HashSet<_> =
            DatasetProfile::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn zero_scale_panics() {
        DatasetProfile::Dblp.config(0.0, 1);
    }
}
