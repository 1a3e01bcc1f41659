//! K-fold cross-validation over ratings (the paper's evaluation protocol).
//!
//! The paper evaluates recommendation recall with 5-fold cross-validation:
//! each user's ratings are partitioned into 5 folds; for each fold, the
//! remaining 4/5 form the training profiles (on which the KNN graph is
//! built) and the held-out fold is the test set the recommender must
//! recover. Users whose training profile would become empty keep at least
//! one training item.

use crate::dataset::{Dataset, DatasetBuilder, ItemId, UserId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One train/test split: a training [`Dataset`] plus the held-out items of
/// every user.
pub struct FoldSplit {
    /// Training dataset (same user ids and item universe as the source).
    pub train: Dataset,
    /// Held-out test items per user, sorted.
    pub test: Vec<Vec<ItemId>>,
}

/// A seeded K-fold partition of a dataset's ratings.
pub struct CrossValidation {
    /// `fold_of[u][j]` = fold assigned to the j-th item of user u's profile.
    fold_of: Vec<Vec<u8>>,
    folds: usize,
}

impl CrossValidation {
    /// Partitions every user's ratings into `folds` folds, uniformly at
    /// random (seeded). Each user's items are spread as evenly as possible:
    /// the fold sizes for one user differ by at most one.
    ///
    /// # Panics
    /// Panics if `folds < 2` or `folds > 255`.
    pub fn new(dataset: &Dataset, folds: usize, seed: u64) -> Self {
        assert!((2..=255).contains(&folds), "folds must be in 2..=255");
        let mut rng = SmallRng::seed_from_u64(seed);
        let fold_of = dataset
            .iter()
            .map(|(_, profile)| {
                // Round-robin assignment over a shuffled order = balanced folds.
                let mut order: Vec<usize> = (0..profile.len()).collect();
                order.shuffle(&mut rng);
                let mut assignment = vec![0u8; profile.len()];
                for (pos, &idx) in order.iter().enumerate() {
                    assignment[idx] = (pos % folds) as u8;
                }
                assignment
            })
            .collect();
        CrossValidation { fold_of, folds }
    }

    /// Number of folds.
    pub fn folds(&self) -> usize {
        self.folds
    }

    /// Materializes the split where `fold` is held out.
    ///
    /// Guarantee: every user keeps at least one training item (if the user
    /// has ≥ 2 items, otherwise the single item stays in training and the
    /// test set is empty for that user).
    pub fn split(&self, dataset: &Dataset, fold: usize) -> FoldSplit {
        assert!(fold < self.folds, "fold {fold} out of range");
        let mut builder = DatasetBuilder::with_capacity(dataset.num_users());
        let mut test: Vec<Vec<ItemId>> = Vec::with_capacity(dataset.num_users());
        let mut train_profile: Vec<ItemId> = Vec::new();
        for (u, profile) in dataset.iter() {
            let assignment = &self.fold_of[u as usize];
            train_profile.clear();
            let mut held_out: Vec<ItemId> = Vec::new();
            for (j, &item) in profile.iter().enumerate() {
                if assignment[j] as usize == fold {
                    held_out.push(item);
                } else {
                    train_profile.push(item);
                }
            }
            if train_profile.is_empty() {
                // Keep at least one item in training so the user still has a
                // similarity signal (mirrors the paper's ≥20-rating filter,
                // under which this is nearly unreachable in practice).
                if let Some(item) = held_out.pop() {
                    train_profile.push(item);
                }
            }
            builder.push_sorted_profile(&train_profile);
            test.push(held_out);
        }
        FoldSplit { train: builder.build_with_min_items(dataset.num_items() as u32), test }
    }

    /// Iterates over all `folds` splits.
    pub fn splits<'a>(&'a self, dataset: &'a Dataset) -> impl Iterator<Item = FoldSplit> + 'a {
        (0..self.folds).map(move |f| self.split(dataset, f))
    }
}

impl FoldSplit {
    /// The held-out items of `user`, sorted.
    pub fn test_items(&self, user: UserId) -> &[ItemId] {
        &self.test[user as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;

    fn toy() -> Dataset {
        Dataset::from_profiles(vec![(0..25).collect(), (10..40).collect(), vec![1, 2], vec![7]], 0)
    }

    #[test]
    fn folds_partition_every_profile() {
        let ds = toy();
        let cv = CrossValidation::new(&ds, 5, 99);
        for u in ds.users() {
            let mut recovered: Vec<ItemId> = Vec::new();
            for fold in 0..5 {
                let split = cv.split(&ds, fold);
                recovered.extend_from_slice(split.test_items(u));
            }
            recovered.sort_unstable();
            // Test sets across folds partition the profile, except the
            // at-least-one-training-item exception for tiny profiles.
            let profile = ds.profile(u);
            if profile.len() >= 5 {
                assert_eq!(recovered, profile);
            } else {
                assert!(recovered.len() <= profile.len());
            }
        }
    }

    #[test]
    fn train_and_test_are_disjoint() {
        let ds = toy();
        let cv = CrossValidation::new(&ds, 5, 1);
        for fold in 0..5 {
            let split = cv.split(&ds, fold);
            for u in ds.users() {
                for item in split.test_items(u) {
                    assert!(
                        split.train.profile(u).binary_search(item).is_err(),
                        "item {item} of user {u} in both train and test"
                    );
                }
            }
        }
    }

    #[test]
    fn every_user_keeps_a_training_item() {
        let ds = toy();
        let cv = CrossValidation::new(&ds, 2, 5);
        for fold in 0..2 {
            let split = cv.split(&ds, fold);
            for u in ds.users() {
                assert!(!split.train.profile(u).is_empty(), "user {u} lost all training items");
            }
        }
    }

    #[test]
    fn fold_sizes_are_balanced() {
        let ds = Dataset::from_profiles(vec![(0..50).collect()], 0);
        let cv = CrossValidation::new(&ds, 5, 3);
        for fold in 0..5 {
            let split = cv.split(&ds, fold);
            assert_eq!(split.test_items(0).len(), 10);
        }
    }

    #[test]
    fn split_is_deterministic() {
        let ds = SyntheticConfig::small(21).generate();
        let a = CrossValidation::new(&ds, 5, 7).split(&ds, 2);
        let b = CrossValidation::new(&ds, 5, 7).split(&ds, 2);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }

    #[test]
    fn item_universe_is_preserved() {
        let ds = toy();
        let cv = CrossValidation::new(&ds, 5, 1);
        let split = cv.split(&ds, 0);
        assert_eq!(split.train.num_items(), ds.num_items());
    }

    #[test]
    #[should_panic(expected = "folds must be in 2..=255")]
    fn one_fold_panics() {
        let ds = toy();
        CrossValidation::new(&ds, 1, 0);
    }
}
