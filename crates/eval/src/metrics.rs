//! Classification metrics.
//!
//! §5.2: *"We consider the learned query as a binary classifier and we
//! measure the F1 score w.r.t. the goal query"* — over the graph's nodes,
//! the goal's selection being the ground truth.

use pathlearn_automata::BitSet;

/// A binary confusion matrix over graph nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Nodes selected by both goal and learned query.
    pub tp: usize,
    /// Nodes selected by the learned query only.
    pub fp: usize,
    /// Nodes selected by the goal only.
    pub fn_: usize,
    /// Nodes selected by neither.
    pub tn: usize,
}

impl Confusion {
    /// Compares a predicted selection against the goal's.
    ///
    /// # Panics
    /// Panics if the two sets have different capacities (different
    /// graphs).
    pub fn from_selections(goal: &BitSet, predicted: &BitSet) -> Self {
        assert_eq!(
            goal.capacity(),
            predicted.capacity(),
            "selections over different node sets"
        );
        let mut confusion = Confusion::default();
        for node in 0..goal.capacity() {
            match (goal.contains(node), predicted.contains(node)) {
                (true, true) => confusion.tp += 1,
                (false, true) => confusion.fp += 1,
                (true, false) => confusion.fn_ += 1,
                (false, false) => confusion.tn += 1,
            }
        }
        confusion
    }

    /// Precision `tp / (tp+fp)`; defined as 1 when nothing is predicted.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall `tp / (tp+fn)`; defined as 1 when the goal selects nothing.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 score (harmonic mean of precision and recall).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// `true` iff predicted == goal (F1 = 1 in the paper's sense).
    pub fn is_exact(&self) -> bool {
        self.fp == 0 && self.fn_ == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(capacity: usize, indices: &[usize]) -> BitSet {
        BitSet::from_indices(capacity, indices.iter().copied())
    }

    #[test]
    fn perfect_prediction() {
        let goal = set(10, &[1, 2, 3]);
        let confusion = Confusion::from_selections(&goal, &goal);
        assert_eq!(confusion.tp, 3);
        assert_eq!(confusion.tn, 7);
        assert!(confusion.is_exact());
        assert_eq!(confusion.f1(), 1.0);
    }

    #[test]
    fn partial_overlap() {
        let goal = set(8, &[0, 1, 2, 3]);
        let predicted = set(8, &[2, 3, 4, 5]);
        let confusion = Confusion::from_selections(&goal, &predicted);
        assert_eq!(
            confusion,
            Confusion {
                tp: 2,
                fp: 2,
                fn_: 2,
                tn: 2
            }
        );
        assert!((confusion.precision() - 0.5).abs() < 1e-12);
        assert!((confusion.recall() - 0.5).abs() < 1e-12);
        assert!((confusion.f1() - 0.5).abs() < 1e-12);
        assert!(!confusion.is_exact());
    }

    #[test]
    fn empty_prediction_of_nonempty_goal() {
        let goal = set(5, &[0, 1]);
        let predicted = set(5, &[]);
        let confusion = Confusion::from_selections(&goal, &predicted);
        assert_eq!(confusion.precision(), 1.0); // vacuous
        assert_eq!(confusion.recall(), 0.0);
        assert_eq!(confusion.f1(), 0.0);
    }

    #[test]
    fn empty_goal_and_empty_prediction_is_exact() {
        let goal = set(5, &[]);
        let confusion = Confusion::from_selections(&goal, &goal);
        assert!(confusion.is_exact());
        assert_eq!(confusion.f1(), 1.0);
    }

    #[test]
    #[should_panic(expected = "different node sets")]
    fn capacity_mismatch_panics() {
        let _ = Confusion::from_selections(&set(4, &[]), &set(5, &[]));
    }
}
