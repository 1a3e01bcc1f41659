//! O(1) sampling from arbitrary discrete distributions (Vose alias method).
//!
//! The synthetic dataset generators draw millions of items from heavily
//! skewed popularity distributions; the alias method makes each draw one
//! read of a `(keep, alias)` column and one integer comparison, independent
//! of the support size. Implemented here because `rand_distr` is outside
//! the allowed crate set.
//!
//! The keep threshold is the column's probability in units of 2⁻⁵³:
//! `keep = ⌈min(prob, 1) · 2⁵³⌉`. The vendored `random::<f64>()` coin is
//! exactly `k · 2⁻⁵³` with `k = next_u64() >> 11 < 2⁵³`, and scaling a
//! probability in `[0, 1]` by 2⁵³ is exact, so `k < keep` is the same
//! predicate as `coin < prob`: the table consumes the stream draw for
//! draw as a float comparison would and returns the same index. The
//! argument holds for any probability in `[0, 1]`, so the synthetic
//! generator's affinity coin, `random::<f64>() < affinity`, is the integer
//! test `k < ⌈affinity · 2⁵³⌉` too (`coin_threshold`).

use rand::{Rng, RngExt};

/// A discrete distribution over `0..n` supporting O(1) sampling.
///
/// Built in O(n) from non-negative weights using Vose's numerically stable
/// variant of Walker's alias method.
#[derive(Clone, Debug)]
pub struct AliasTable {
    columns: Vec<Column>,
}

/// One column of an [`AliasTable`]: a draw that lands here returns `own`
/// iff the 53-bit coin is below `keep`, and `alias` otherwise.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Column {
    /// The column's probability as a threshold in units of 2⁻⁵³.
    pub(crate) keep: u64,
    /// The label of the column's own index.
    pub(crate) own: u32,
    /// The label of the fallback index.
    pub(crate) alias: u32,
}

/// `2⁵³`, the resolution of the 53-bit coin.
const COIN_SCALE: f64 = (1u64 << 53) as f64;

/// `⌈min(p, 1) · 2⁵³⌉`: the 53-bit coin `k = word >> 11` satisfies
/// `k < coin_threshold(p)` iff the `f64` coin `k · 2⁻⁵³` is below `p`.
pub(crate) fn coin_threshold(p: f64) -> u64 {
    (p.min(1.0) * COIN_SCALE).ceil() as u64
}

impl AliasTable {
    /// Builds the table from weights. Zero weights are allowed; at least one
    /// weight must be positive.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite value,
    /// or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        Self::labelled(weights, |index| index)
    }

    /// Builds the table from weights, returning `label(i)` wherever
    /// [`AliasTable::new`] returns index `i`: a draw from a pool is one
    /// column read, with no lookup of the pool afterwards.
    pub(crate) fn labelled(weights: &[f64], label: impl Fn(u32) -> u32) -> Self {
        let (prob, alias) = vose(weights);
        let columns = (0..weights.len() as u32)
            .zip(prob.iter().zip(alias))
            .map(|(own, (&p, alias))| Column {
                keep: coin_threshold(p),
                own: label(own),
                alias: label(alias),
            })
            .collect();
        AliasTable { columns }
    }

    /// The columns, for a caller that draws from a look-ahead window of
    /// the stream instead of through [`AliasTable::sample`].
    pub(crate) fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Size of the support, `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the support is empty (never: construction forbids it).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Draws one index in `0..n` (its label, for a labelled table) with
    /// probability proportional to its weight.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let column = self.columns[rng.random_range(0..self.columns.len())];
        if rng.next_u64() >> 11 < column.keep {
            column.own
        } else {
            column.alias
        }
    }
}

/// Vose's construction: per column, the probability of keeping the column's
/// own index and the fallback index. Probabilities are non-negative; the
/// column the pairing loop pops last can keep a mass a rounding step above
/// 1, which keeps the column just as 1 does.
fn vose(weights: &[f64]) -> (Vec<f64>, Vec<u32>) {
    assert!(!weights.is_empty(), "alias table needs at least one weight");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "weights must be finite and non-negative"
    );
    let n = weights.len();
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");

    // Scale weights so the average column is exactly 1.
    let scale = n as f64 / total;
    let mut prob: Vec<f64> = weights.iter().map(|w| w * scale).collect();
    let mut alias = vec![0u32; n];

    // Partition columns into under- and over-full stacks.
    let mut small: Vec<u32> = Vec::with_capacity(n);
    let mut large: Vec<u32> = Vec::with_capacity(n);
    for (i, &p) in prob.iter().enumerate() {
        if p < 1.0 {
            small.push(i as u32);
        } else {
            large.push(i as u32);
        }
    }

    while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
        alias[s as usize] = l;
        // Donate the missing mass of `s` from `l`.
        prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
        if prob[l as usize] < 1.0 {
            small.push(l);
        } else {
            large.push(l);
        }
    }
    // Numerical leftovers: both stacks should hold columns of mass ~1.
    for i in small.into_iter().chain(large) {
        prob[i as usize] = 1.0;
    }
    (prob, alias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn empirical(weights: &[f64], draws: usize, seed: u64) -> Vec<f64> {
        let table = AliasTable::new(weights);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng) as usize] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn uniform_weights_sample_uniformly() {
        let freqs = empirical(&[1.0; 8], 80_000, 1);
        for f in freqs {
            assert!((f - 0.125).abs() < 0.01, "frequency {f} too far from 1/8");
        }
    }

    #[test]
    fn skewed_weights_match_proportions() {
        let weights = [8.0, 4.0, 2.0, 1.0, 1.0];
        let total: f64 = weights.iter().sum();
        let freqs = empirical(&weights, 160_000, 2);
        for (f, w) in freqs.iter().zip(weights.iter()) {
            assert!((f - w / total).abs() < 0.01, "frequency {f} vs expected {}", w / total);
        }
    }

    #[test]
    fn zero_weight_entries_are_never_drawn() {
        let freqs = empirical(&[1.0, 0.0, 1.0, 0.0], 40_000, 3);
        assert_eq!(freqs[1], 0.0);
        assert_eq!(freqs[3], 0.0);
    }

    #[test]
    fn singleton_support_always_returns_zero() {
        let table = AliasTable::new(&[42.0]);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zipf_weights_give_power_law_frequencies() {
        // The generator's popularity law: rank r has weight r^-s.
        let weights: Vec<f64> = (1..=100).map(|r| (r as f64).powf(-1.0)).collect();
        let freqs = empirical(&weights, 400_000, 9);
        // f(rank 1) / f(rank 2) should be ~2 for s = 1.
        let ratio = freqs[0] / freqs[1];
        assert!((ratio - 2.0).abs() < 0.15, "ratio {ratio} too far from 2.0");
    }

    /// The draw the threshold columns replace: a column, then a 53-bit
    /// `f64` coin against the column's probability.
    fn float_sample<R: Rng + ?Sized>(prob: &[f64], alias: &[u32], rng: &mut R) -> u32 {
        let column = rng.random_range(0..prob.len());
        let coin: f64 = rng.random();
        if coin < prob[column] {
            column as u32
        } else {
            alias[column]
        }
    }

    fn assert_matches_float_draw(weights: &[f64], draws: usize, seed: u64) {
        let table = AliasTable::new(weights);
        let (prob, alias) = vose(weights);
        let mut threshold_rng = SmallRng::seed_from_u64(seed);
        let mut float_rng = SmallRng::seed_from_u64(seed);
        for draw in 0..draws {
            assert_eq!(
                table.sample(&mut threshold_rng),
                float_sample(&prob, &alias, &mut float_rng),
                "draw {draw} over {} weights",
                weights.len()
            );
        }
        assert_eq!(threshold_rng.next_u64(), float_rng.next_u64(), "streams fell out of step");
    }

    #[test]
    fn threshold_draw_equals_the_float_draw_on_one_stream() {
        let mut rng = SmallRng::seed_from_u64(99);
        for case in 0..50 {
            let n = rng.random_range(1..200usize);
            let mut weights: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 10.0).collect();
            // About a quarter of the columns weigh nothing; never all.
            for w in weights.iter_mut() {
                if rng.random_range(0..4u32) == 0 {
                    *w = 0.0;
                }
            }
            weights[0] += 0.5;
            assert_matches_float_draw(&weights, 2_000, case);
        }
        // Zipf weights, as the generator builds them.
        let zipf: Vec<f64> = (1..=1000).map(|r| (r as f64).powf(-1.05)).collect();
        assert_matches_float_draw(&zipf, 20_000, 7);
        // A singleton support and uniform weights: every probability is 1.0.
        assert_matches_float_draw(&[42.0], 100, 8);
        assert!(vose(&[1.0; 8]).0.iter().all(|&p| p == 1.0));
        assert_matches_float_draw(&[1.0; 8], 1_000, 9);
    }

    #[test]
    fn a_labelled_table_returns_the_label_of_the_plain_draw() {
        let weights: Vec<f64> = (1..=300).map(|r| (r as f64).powf(-0.9)).collect();
        let labels: Vec<u32> = (0..300).map(|i| 7 * i + 3).collect();
        let plain = AliasTable::new(&weights);
        let labelled = AliasTable::labelled(&weights, |index| labels[index as usize]);
        let mut plain_rng = SmallRng::seed_from_u64(12);
        let mut labelled_rng = SmallRng::seed_from_u64(12);
        for _ in 0..10_000 {
            let index = plain.sample(&mut plain_rng);
            assert_eq!(labelled.sample(&mut labelled_rng), labels[index as usize]);
        }
    }

    #[test]
    fn the_affinity_threshold_is_the_float_coin() {
        let mut rng = SmallRng::seed_from_u64(13);
        let mut cases: Vec<f64> = (0..200).map(|_| rng.random::<f64>()).collect();
        cases.extend([0.0, 1.0, 0.5, 0.65, 0.85, f64::MIN_POSITIVE, 1.0 - f64::EPSILON / 2.0]);
        for p in cases {
            let threshold = coin_threshold(p);
            let edge = (p * COIN_SCALE).floor() as u64;
            for k in [edge.saturating_sub(1), edge, edge + 1, 0, (1 << 53) - 1] {
                let k = k.min((1 << 53) - 1);
                let word = k << 11 | 0x5a5;
                let coin: f64 = Script(vec![word]).random();
                assert_eq!(word >> 11 < threshold, coin < p, "p = {p}, coin {k}·2⁻⁵³");
            }
        }
    }

    /// Replays fixed words, so a test can put the coin on a threshold.
    struct Script(Vec<u64>);

    impl Rng for Script {
        fn next_u64(&mut self) -> u64 {
            self.0.remove(0)
        }
    }

    #[test]
    fn coins_beside_and_on_each_threshold_agree_with_the_float_draw() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut between_coins = 0;
        for _ in 0..20 {
            let weights: Vec<f64> = (0..16).map(|_| rng.random::<f64>()).collect();
            let table = AliasTable::new(&weights);
            let (prob, alias) = vose(&weights);
            for column in 0..weights.len() {
                let threshold = prob[column].min(1.0) * COIN_SCALE;
                between_coins += (threshold.fract() != 0.0) as usize;
                let edge = threshold.floor() as u64;
                for k in [edge.saturating_sub(1), edge, edge + 1] {
                    let k = k.min((1 << 53) - 1);
                    // Low bits below the coin's 53 must not matter.
                    let words = vec![column as u64, k << 11 | 0x7ff];
                    assert_eq!(
                        table.sample(&mut Script(words.clone())),
                        float_sample(&prob, &alias, &mut Script(words)),
                        "column {column}, coin {k}·2⁻⁵³"
                    );
                }
            }
        }
        // A probability below 1/2 can fall between two coins; there the
        // threshold's rounding decides the draw.
        assert!(between_coins > 0, "no threshold fell between two coins");
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn empty_weights_panic() {
        AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn all_zero_weights_panic() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_panics() {
        AliasTable::new(&[1.0, -1.0]);
    }
}
