//! Profile sampling (Kermarrec, Ruas, Taïani, Euro-Par'18 — the paper's
//! reference \[39\]: "Nobody cares if you liked Star Wars: KNN graph
//! construction on the cheap").
//!
//! A complementary way to cut similarity costs: cap every profile at `s`
//! items *before* building the graph. The cited work's key insight is that
//! **least-popular** items are the most discriminative — two users sharing
//! a blockbuster says little, sharing an obscure item says a lot — so
//! popularity-aware sampling loses far less KNN quality than uniform
//! sampling at the same budget. Provided as an optional preprocessing step
//! composable with every algorithm in the workspace.

use crate::dataset::{Dataset, DatasetBuilder, ItemId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Which items to keep when a profile exceeds the budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingPolicy {
    /// Keep a uniform random subset.
    Random,
    /// Keep the least-popular items (the \[39\] recommendation).
    LeastPopular,
    /// Keep the most-popular items (the anti-policy, useful as a control).
    MostPopular,
}

/// Returns a dataset where every profile has at most `max_items` items,
/// selected by `policy`. Item ids and the item universe are preserved.
///
/// # Panics
/// Panics if `max_items == 0`.
pub fn sample_profiles(
    dataset: &Dataset,
    max_items: usize,
    policy: SamplingPolicy,
    seed: u64,
) -> Dataset {
    assert!(max_items > 0, "max_items must be positive");
    let popularity = dataset.item_frequencies();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = DatasetBuilder::with_capacity(dataset.num_users());
    let mut scratch: Vec<ItemId> = Vec::new();
    for (_, profile) in dataset.iter() {
        if profile.len() <= max_items {
            builder.push_sorted_profile(profile);
            continue;
        }
        scratch.clear();
        scratch.extend_from_slice(profile);
        match policy {
            SamplingPolicy::Random => {
                scratch.shuffle(&mut rng);
                scratch.truncate(max_items);
            }
            SamplingPolicy::LeastPopular => {
                // Ties broken by item id for determinism.
                scratch.sort_unstable_by_key(|&i| (popularity[i as usize], i));
                scratch.truncate(max_items);
            }
            SamplingPolicy::MostPopular => {
                scratch.sort_unstable_by_key(|&i| (std::cmp::Reverse(popularity[i as usize]), i));
                scratch.truncate(max_items);
            }
        }
        scratch.sort_unstable();
        builder.push_sorted_profile(&scratch);
    }
    builder.build_with_min_items(dataset.num_items() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;

    fn toy() -> Dataset {
        // Item 0 is in every profile (most popular); items 10+u are personal.
        Dataset::from_profiles(vec![vec![0, 1, 10, 11], vec![0, 1, 12, 13], vec![0, 14]], 0)
    }

    #[test]
    fn profiles_are_capped() {
        let ds = toy();
        for policy in
            [SamplingPolicy::Random, SamplingPolicy::LeastPopular, SamplingPolicy::MostPopular]
        {
            let sampled = sample_profiles(&ds, 2, policy, 1);
            for (_, p) in sampled.iter() {
                assert!(p.len() <= 2);
            }
            sampled.validate().unwrap();
        }
    }

    #[test]
    fn small_profiles_are_untouched() {
        let ds = toy();
        let sampled = sample_profiles(&ds, 10, SamplingPolicy::Random, 1);
        assert_eq!(sampled, ds);
    }

    #[test]
    fn least_popular_drops_the_blockbuster_first() {
        let ds = toy();
        let sampled = sample_profiles(&ds, 2, SamplingPolicy::LeastPopular, 1);
        for (u, p) in sampled.iter() {
            if ds.profile_len(u) > 2 {
                assert!(
                    p.binary_search(&0).is_err(),
                    "user {u} kept the most popular item under LeastPopular"
                );
            }
        }
    }

    #[test]
    fn most_popular_keeps_the_blockbuster() {
        let ds = toy();
        let sampled = sample_profiles(&ds, 2, SamplingPolicy::MostPopular, 1);
        for (u, p) in sampled.iter() {
            if ds.profile_len(u) >= 2 {
                assert!(p.binary_search(&0).is_ok(), "user {u} lost the most popular item");
            }
        }
    }

    #[test]
    fn item_universe_is_preserved() {
        let ds = toy();
        let sampled = sample_profiles(&ds, 1, SamplingPolicy::Random, 2);
        assert_eq!(sampled.num_items(), ds.num_items());
        assert_eq!(sampled.num_users(), ds.num_users());
    }

    #[test]
    fn random_sampling_is_seeded() {
        let ds = SyntheticConfig::small(81).generate();
        let a = sample_profiles(&ds, 10, SamplingPolicy::Random, 9);
        let b = sample_profiles(&ds, 10, SamplingPolicy::Random, 9);
        let c = sample_profiles(&ds, 10, SamplingPolicy::Random, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sampled_items_are_a_subset_of_the_original() {
        let ds = SyntheticConfig::small(82).generate();
        let sampled = sample_profiles(&ds, 8, SamplingPolicy::LeastPopular, 3);
        for (u, p) in sampled.iter() {
            for item in p {
                assert!(ds.profile(u).binary_search(item).is_ok());
            }
        }
    }

    #[test]
    #[should_panic(expected = "max_items must be positive")]
    fn zero_budget_panics() {
        sample_profiles(&toy(), 0, SamplingPolicy::Random, 1);
    }
}
