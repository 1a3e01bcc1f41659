//! Dataset statistics (the paper's Table I).

use crate::dataset::Dataset;
use std::fmt;

/// Summary statistics of a dataset, matching the columns of Table I.
#[derive(Clone, Copy, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DatasetStats {
    /// Number of users `|U|`.
    pub users: usize,
    /// Number of items `|I|`.
    pub items: usize,
    /// Number of (binarized) ratings.
    pub ratings: usize,
    /// Average profile size `|P_u|`.
    pub avg_profile: f64,
    /// Average item degree `|P_i|` over items that appear at least once.
    pub avg_item_degree: f64,
    /// Density of the user × item matrix, in `[0, 1]`.
    pub density: f64,
    /// Largest item degree (head of the popularity distribution).
    pub max_item_degree: u32,
}

impl DatasetStats {
    /// Computes the statistics of `dataset` in one pass over the ratings.
    pub fn compute(dataset: &Dataset) -> Self {
        let users = dataset.num_users();
        let items = dataset.num_items();
        let ratings = dataset.num_ratings();
        let freq = dataset.item_frequencies();
        let present = freq.iter().filter(|&&f| f > 0).count();
        let max_item_degree = freq.iter().copied().max().unwrap_or(0);
        DatasetStats {
            users,
            items,
            ratings,
            avg_profile: if users == 0 { 0.0 } else { ratings as f64 / users as f64 },
            avg_item_degree: if present == 0 { 0.0 } else { ratings as f64 / present as f64 },
            density: dataset.density(),
            max_item_degree,
        }
    }
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} users, {} items, {} ratings, |Pu|={:.2}, |Pi|={:.2}, density={:.3}%",
            self.users,
            self.items,
            self.ratings,
            self.avg_profile,
            self.avg_item_degree,
            self.density * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_toy_dataset() {
        let ds = Dataset::from_profiles(vec![vec![0, 1], vec![1, 2], vec![1]], 0);
        let s = DatasetStats::compute(&ds);
        assert_eq!(s.users, 3);
        assert_eq!(s.items, 3);
        assert_eq!(s.ratings, 5);
        assert!((s.avg_profile - 5.0 / 3.0).abs() < 1e-12);
        assert!((s.avg_item_degree - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.max_item_degree, 3);
        assert!((s.density - 5.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn avg_item_degree_ignores_absent_items() {
        // Item universe of 10, only 2 items used.
        let ds = Dataset::from_profiles(vec![vec![0, 1], vec![0]], 10);
        let s = DatasetStats::compute(&ds);
        assert_eq!(s.items, 10);
        assert!((s.avg_item_degree - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_stats_are_zero() {
        let ds = Dataset::from_profiles(vec![], 0);
        let s = DatasetStats::compute(&ds);
        assert_eq!(s.users, 0);
        assert_eq!(s.avg_profile, 0.0);
        assert_eq!(s.avg_item_degree, 0.0);
    }
}
