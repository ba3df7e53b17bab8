//! Samples: user-labeled examples (paper §3.1).
//!
//! A (monadic) *example* is a pair `(ν, α)` with `α ∈ {+, −}`; a *sample*
//! is a set of examples.

use pathlearn_graph::NodeId;

/// A monadic sample: positively and negatively labeled nodes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Sample {
    pos: Vec<NodeId>,
    neg: Vec<NodeId>,
}

impl Sample {
    /// Creates an empty sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a sample from positive and negative node lists.
    pub fn from_parts(
        pos: impl IntoIterator<Item = NodeId>,
        neg: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let mut sample = Self::new();
        for n in pos {
            sample.add(n, true);
        }
        for n in neg {
            sample.add(n, false);
        }
        sample
    }

    /// Adds a positive example (builder style).
    #[must_use]
    pub fn positive(mut self, node: NodeId) -> Self {
        self.add(node, true);
        self
    }

    /// Adds a negative example (builder style).
    #[must_use]
    pub fn negative(mut self, node: NodeId) -> Self {
        self.add(node, false);
        self
    }

    /// Adds an example in place. Re-labeling an already-labeled node with
    /// the same label is a no-op; with the opposite label it panics (the
    /// caller created a contradictory sample).
    pub fn add(&mut self, node: NodeId, positive: bool) {
        let (own, other) = if positive {
            (&mut self.pos, &self.neg)
        } else {
            (&mut self.neg, &self.pos)
        };
        assert!(
            other.binary_search(&node).is_err(),
            "node {node} labeled both + and -"
        );
        if let Err(at) = own.binary_search(&node) {
            own.insert(at, node);
        }
    }

    /// Positive nodes `S⁺`, sorted.
    pub fn pos(&self) -> &[NodeId] {
        &self.pos
    }

    /// Negative nodes `S⁻`, sorted.
    pub fn neg(&self) -> &[NodeId] {
        &self.neg
    }

    /// Whether `node` carries a label.
    pub fn is_labeled(&self, node: NodeId) -> bool {
        self.pos.binary_search(&node).is_ok() || self.neg.binary_search(&node).is_ok()
    }

    /// The label of `node`, if any.
    pub fn label(&self, node: NodeId) -> Option<bool> {
        if self.pos.binary_search(&node).is_ok() {
            Some(true)
        } else if self.neg.binary_search(&node).is_ok() {
            Some(false)
        } else {
            None
        }
    }

    /// Total number of examples.
    pub fn len(&self) -> usize {
        self.pos.len() + self.neg.len()
    }

    /// Whether the sample has no examples.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty() && self.neg.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monadic_sample_basics() {
        let sample = Sample::new().positive(3).negative(1).positive(2);
        assert_eq!(sample.pos(), &[2, 3]);
        assert_eq!(sample.neg(), &[1]);
        assert_eq!(sample.len(), 3);
        assert!(sample.is_labeled(2));
        assert!(!sample.is_labeled(0));
        assert_eq!(sample.label(3), Some(true));
        assert_eq!(sample.label(1), Some(false));
        assert_eq!(sample.label(9), None);
    }

    #[test]
    fn duplicate_labels_are_idempotent() {
        let mut sample = Sample::new();
        sample.add(5, true);
        sample.add(5, true);
        assert_eq!(sample.pos(), &[5]);
    }

    #[test]
    #[should_panic(expected = "labeled both")]
    fn contradictory_labels_panic() {
        let mut sample = Sample::new();
        sample.add(5, true);
        sample.add(5, false);
    }

    #[test]
    fn from_parts_sorts() {
        let sample = Sample::from_parts([9, 1, 5], [2]);
        assert_eq!(sample.pos(), &[1, 5, 9]);
    }
}
