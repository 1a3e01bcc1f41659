//! KNN classification on top of the graph (the paper's first motivating
//! application class, refs \[1\], \[2\]).
//!
//! Given labels for a *training* subset of users, each remaining user is
//! classified by a similarity-weighted majority vote among her KNN-graph
//! neighbours — the classic use of a KNN graph as the substrate of a
//! classifier. Exposed to measure how approximation quality translates to
//! end-task accuracy, complementing the recommendation use-case (§V-B).

use cnc_dataset::UserId;
use cnc_graph::KnnGraph;
use std::collections::HashMap;

/// A KNN-graph-backed classifier.
///
/// `labels[u] = Some(class)` marks labelled (training) users; `None` users
/// are the ones to classify.
pub struct KnnClassifier<'a> {
    graph: &'a KnnGraph,
    labels: &'a [Option<u32>],
}

impl<'a> KnnClassifier<'a> {
    /// Binds a graph and the (partial) label vector.
    ///
    /// # Panics
    /// Panics if `labels` and the graph disagree on the user count.
    pub fn new(graph: &'a KnnGraph, labels: &'a [Option<u32>]) -> Self {
        assert_eq!(graph.num_users(), labels.len(), "one label slot per user");
        KnnClassifier { graph, labels }
    }

    /// Predicts a class for `user` by similarity-weighted vote among her
    /// labelled neighbours; `None` when no labelled neighbour exists.
    /// Ties break on the smaller class id (deterministic).
    pub fn predict(&self, user: UserId) -> Option<u32> {
        let mut votes: HashMap<u32, f64> = HashMap::new();
        for neighbor in self.graph.neighbors(user).iter() {
            if let Some(class) = self.labels[neighbor.user as usize] {
                *votes.entry(class).or_insert(0.0) += neighbor.sim.max(0.0) as f64;
            }
        }
        votes
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then_with(|| b.0.cmp(&a.0)))
            .map(|(class, _)| class)
    }

    /// Classifies every unlabelled user; returns `(user, prediction)`
    /// pairs (prediction is `None` when the vote is empty).
    pub fn predict_all(&self) -> Vec<(UserId, Option<u32>)> {
        (0..self.graph.num_users() as u32)
            .filter(|&u| self.labels[u as usize].is_none())
            .map(|u| (u, self.predict(u)))
            .collect()
    }

    /// Accuracy of the classifier against ground truth on the unlabelled
    /// users: `truth[u]` is the real class of user `u`. Users with no
    /// labelled neighbour count as errors.
    pub fn accuracy(&self, truth: &[u32]) -> f64 {
        assert_eq!(truth.len(), self.labels.len(), "one truth label per user");
        let mut total = 0usize;
        let mut correct = 0usize;
        for (u, prediction) in self.predict_all() {
            total += 1;
            if prediction == Some(truth[u as usize]) {
                correct += 1;
            }
        }
        if total == 0 {
            1.0
        } else {
            correct as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two clean communities of 4; half of each labelled.
    fn setup() -> (KnnGraph, Vec<Option<u32>>, Vec<u32>) {
        let mut graph = KnnGraph::new(8, 3);
        // Users 0-3 densely connected; users 4-7 densely connected.
        for group in [0u32, 4] {
            for i in 0..4u32 {
                for j in 0..4u32 {
                    if i != j {
                        graph.insert(group + i, group + j, 0.8);
                    }
                }
            }
        }
        let labels = vec![Some(0), Some(0), None, None, Some(1), Some(1), None, None];
        let truth = vec![0, 0, 0, 0, 1, 1, 1, 1];
        (graph, labels, truth)
    }

    #[test]
    fn majority_vote_recovers_community_labels() {
        let (graph, labels, truth) = setup();
        let clf = KnnClassifier::new(&graph, &labels);
        assert_eq!(clf.predict(2), Some(0));
        assert_eq!(clf.predict(6), Some(1));
        assert_eq!(clf.accuracy(&truth), 1.0);
    }

    #[test]
    fn no_labelled_neighbors_gives_none() {
        let graph = KnnGraph::new(2, 2);
        let labels = vec![None, None];
        let clf = KnnClassifier::new(&graph, &labels);
        assert_eq!(clf.predict(0), None);
    }

    #[test]
    fn weighted_vote_prefers_stronger_similarity() {
        let mut graph = KnnGraph::new(4, 3);
        graph.insert(0, 1, 0.9); // class 0, strong
        graph.insert(0, 2, 0.3); // class 1, weak
        graph.insert(0, 3, 0.3); // class 1, weak
        let labels = vec![None, Some(0), Some(1), Some(1)];
        let clf = KnnClassifier::new(&graph, &labels);
        assert_eq!(clf.predict(0), Some(0), "0.9 must outweigh 0.3 + 0.3");
    }

    #[test]
    fn ties_break_on_smaller_class_id() {
        let mut graph = KnnGraph::new(3, 2);
        graph.insert(0, 1, 0.5);
        graph.insert(0, 2, 0.5);
        let labels = vec![None, Some(7), Some(3)];
        let clf = KnnClassifier::new(&graph, &labels);
        assert_eq!(clf.predict(0), Some(3));
    }

    #[test]
    fn predict_all_skips_labelled_users() {
        let (graph, labels, _) = setup();
        let clf = KnnClassifier::new(&graph, &labels);
        let predictions = clf.predict_all();
        assert_eq!(predictions.len(), 4);
        for (u, _) in predictions {
            assert!(labels[u as usize].is_none());
        }
    }

    #[test]
    fn accuracy_counts_unclassifiable_users_as_errors() {
        let graph = KnnGraph::new(2, 2); // no edges at all
        let labels = vec![Some(0), None];
        let truth = vec![0, 0];
        let clf = KnnClassifier::new(&graph, &labels);
        assert_eq!(clf.accuracy(&truth), 0.0);
    }

    #[test]
    #[should_panic(expected = "one label slot per user")]
    fn mismatched_labels_panic() {
        let graph = KnnGraph::new(2, 2);
        KnnClassifier::new(&graph, &[None]);
    }
}
