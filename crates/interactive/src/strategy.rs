//! Node-proposal strategies (paper §4.2).
//!
//! A strategy `Υ` maps `(G, S)` to the next node to present to the user.
//! Because exact informativeness is PSPACE-complete (Lemma 4.2), the
//! paper proposes two practical strategies built on the *k-informative*
//! test:
//!
//! * **kR** — a uniformly random k-informative node;
//! * **kS** — the k-informative node with the **smallest** number of
//!   uncovered k-paths, *"favoring the nodes for which computing the SCPs
//!   is easier"*.
//!
//! Both escalate `k` when no k-informative node exists (§5.1).
//!
//! A [`Strategy`] holds the parameters and proposes through an
//! [`ScpFinder`] it is lent. A session lends the *same* finder before
//! every label, so the k-informative verdicts (`kR`) and the uncovered
//! counts (`kS`) it worked out for one sample are still there for the
//! next, minus what the new label invalidated
//! ([`ScpFinder::add_negative`]); the free [`propose`] lends a fresh one.

use pathlearn_core::Sample;
use pathlearn_graph::{GraphDb, NodeId, ScpFinder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Which strategy to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StrategyKind {
    /// `kR`: random k-informative node.
    KRandom,
    /// `kS`: k-informative node with the fewest uncovered k-paths.
    KSmallest,
    /// The *ideal* strategy of §4.2 before its intractability result
    /// (Lemma 4.2): propose only **exactly informative** nodes, decided
    /// with the antichain inclusion algorithm (worst-case exponential —
    /// use on small graphs only; the paper's practical strategies exist
    /// precisely because this one is PSPACE-hard).
    ExactInformative,
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyKind::KRandom => write!(f, "kR"),
            StrategyKind::KSmallest => write!(f, "kS"),
            StrategyKind::ExactInformative => write!(f, "exact"),
        }
    }
}

/// Outcome of one strategy invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Proposal {
    /// Present this node to the user (found with the recorded `k`).
    Node {
        /// The proposed node.
        node: NodeId,
        /// The `k` at which it was found informative.
        k: usize,
    },
    /// No k-informative node exists for any `k ≤ k_max`.
    Exhausted,
}

/// A node-proposal strategy with its parameters.
#[derive(Clone, Copy, Debug)]
pub struct Strategy {
    /// Which strategy.
    pub kind: StrategyKind,
    /// Initial k for the k-informative test.
    pub k_start: usize,
    /// Maximum k before declaring exhaustion.
    pub k_max: usize,
    /// Bounds the per-node work of `kS`; counts above the cap compare
    /// equal, which only blurs ties among *highly* informative nodes (the
    /// strategy prefers low counts).
    pub count_cap: usize,
}

impl Strategy {
    /// Proposes the next node for `sample` on the finder's graph.
    /// `candidates` must be the current unlabeled nodes; the slice is
    /// shuffled with `rng` for `kR` and consulted exhaustively, in the
    /// given order, for `kS`.
    ///
    /// The finder is brought to `sample`'s negatives first; what it
    /// remembers from earlier calls only saves work — the proposal is the
    /// one a fresh finder gives, and `rng` is consumed the same way.
    pub fn propose(
        &self,
        finder: &mut ScpFinder<'_>,
        sample: &Sample,
        candidates: &[NodeId],
        rng: &mut StdRng,
    ) -> Proposal {
        if self.kind == StrategyKind::ExactInformative {
            // Order candidates randomly, return the first exactly-informative
            // one. `k` reported as 0 (the exact test has no bound).
            let mut order: Vec<NodeId> = candidates.to_vec();
            order.shuffle(rng);
            for node in order {
                if crate::certain::is_informative(finder.graph(), sample, node) {
                    return Proposal::Node { node, k: 0 };
                }
            }
            return Proposal::Exhausted;
        }

        finder.set_negatives(sample.neg());
        for k in self.k_start..=self.k_max {
            match self.kind {
                StrategyKind::ExactInformative => unreachable!("handled above"),
                StrategyKind::KRandom => {
                    let mut order: Vec<NodeId> = candidates.to_vec();
                    order.shuffle(rng);
                    for node in order {
                        if finder.is_k_informative(node, k) {
                            return Proposal::Node { node, k };
                        }
                    }
                }
                StrategyKind::KSmallest => {
                    let mut best: Option<(usize, NodeId)> = None;
                    for &node in candidates {
                        let count = finder.count_uncovered(node, k, self.count_cap);
                        if count == 0 {
                            continue; // not k-informative
                        }
                        let better = match best {
                            None => true,
                            Some((best_count, _)) => count < best_count,
                        };
                        if better {
                            best = Some((count, node));
                            if count == 1 {
                                break; // cannot do better
                            }
                        }
                    }
                    if let Some((_, node)) = best {
                        return Proposal::Node { node, k };
                    }
                }
            }
        }
        Proposal::Exhausted
    }
}

/// One proposal from `(G, S)` alone: [`Strategy::propose`] on a fresh
/// finder.
// Eight flat arguments because the benchmark's adapter calls it this way.
#[allow(clippy::too_many_arguments)]
pub fn propose(
    kind: StrategyKind,
    graph: &GraphDb,
    sample: &Sample,
    candidates: &[NodeId],
    k_start: usize,
    k_max: usize,
    count_cap: usize,
    rng: &mut StdRng,
) -> Proposal {
    let strategy = Strategy {
        kind,
        k_start,
        k_max,
        count_cap,
    };
    strategy.propose(
        &mut ScpFinder::new(graph, sample.neg()),
        sample,
        candidates,
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathlearn_graph::graph::figure3_g0;
    use rand::SeedableRng;

    fn unlabeled(graph: &GraphDb, sample: &Sample) -> Vec<NodeId> {
        graph.nodes().filter(|&n| !sample.is_labeled(n)).collect()
    }

    #[test]
    fn kr_proposes_some_informative_node() {
        let graph = figure3_g0();
        let sample = Sample::new()
            .negative(graph.node_id("v2").unwrap())
            .negative(graph.node_id("v7").unwrap());
        let mut rng = StdRng::seed_from_u64(7);
        let candidates = unlabeled(&graph, &sample);
        let proposal = propose(
            StrategyKind::KRandom,
            &graph,
            &sample,
            &candidates,
            2,
            4,
            1000,
            &mut rng,
        );
        let Proposal::Node { node, k } = proposal else {
            panic!("expected a node");
        };
        let mut finder = ScpFinder::new(&graph, sample.neg());
        assert!(finder.is_k_informative(node, k));
    }

    #[test]
    fn ks_prefers_fewest_uncovered_paths() {
        let graph = figure3_g0();
        let sample = Sample::new()
            .negative(graph.node_id("v2").unwrap())
            .negative(graph.node_id("v7").unwrap());
        let mut rng = StdRng::seed_from_u64(7);
        let candidates = unlabeled(&graph, &sample);
        let proposal = propose(
            StrategyKind::KSmallest,
            &graph,
            &sample,
            &candidates,
            2,
            4,
            10_000,
            &mut rng,
        );
        let Proposal::Node { node, k } = proposal else {
            panic!("expected a node");
        };
        // Verify minimality over all candidates at that k.
        let mut finder = ScpFinder::new(&graph, sample.neg());
        let chosen = finder.count_uncovered(node, k, 10_000);
        assert!(chosen > 0);
        for &other in &candidates {
            let count = finder.count_uncovered(other, k, 10_000);
            if count > 0 {
                assert!(
                    chosen <= count,
                    "node {node} ({chosen}) vs {other} ({count})"
                );
            }
        }
    }

    #[test]
    fn exact_strategy_proposes_only_informative_nodes() {
        let graph = figure3_g0();
        let sample = Sample::new()
            .positive(graph.node_id("v1").unwrap())
            .positive(graph.node_id("v3").unwrap())
            .negative(graph.node_id("v2").unwrap())
            .negative(graph.node_id("v7").unwrap());
        let mut rng = StdRng::seed_from_u64(5);
        let candidates = unlabeled(&graph, &sample);
        match propose(
            StrategyKind::ExactInformative,
            &graph,
            &sample,
            &candidates,
            2,
            4,
            1000,
            &mut rng,
        ) {
            Proposal::Node { node, .. } => {
                assert!(crate::certain::is_informative(&graph, &sample, node));
                // With this sample, only v6 is informative (certain.rs tests).
                assert_eq!(graph.node_name(node), "v6");
            }
            Proposal::Exhausted => panic!("v6 is informative"),
        }
    }

    #[test]
    fn exact_strategy_exhausts_when_all_certain() {
        // Figure 10-style setup where the only unlabeled nodes are certain.
        use pathlearn_automata::Alphabet;
        use pathlearn_graph::GraphBuilder;
        let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(["a", "b"]));
        builder.add_edge("neg", "a", "sink");
        builder.add_edge("pos", "a", "sink");
        builder.add_edge("pos", "b", "sink");
        builder.add_edge("u", "a", "sink");
        builder.add_edge("u", "b", "sink");
        let graph = builder.build();
        let sample = Sample::new()
            .positive(graph.node_id("pos").unwrap())
            .negative(graph.node_id("neg").unwrap());
        let candidates: Vec<NodeId> = vec![
            graph.node_id("u").unwrap(),    // certain positive
            graph.node_id("sink").unwrap(), // certain negative
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let proposal = propose(
            StrategyKind::ExactInformative,
            &graph,
            &sample,
            &candidates,
            2,
            4,
            1000,
            &mut rng,
        );
        assert_eq!(proposal, Proposal::Exhausted);
    }

    #[test]
    fn exhausted_when_no_informative_nodes() {
        // All nodes' short paths covered: label everything negative except
        // a positive that is itself consistent… simpler: sample covering
        // everything and candidates empty.
        let graph = figure3_g0();
        let sample = Sample::new();
        let mut rng = StdRng::seed_from_u64(1);
        let proposal = propose(
            StrategyKind::KRandom,
            &graph,
            &sample,
            &[],
            2,
            4,
            1000,
            &mut rng,
        );
        assert_eq!(proposal, Proposal::Exhausted);
    }

    #[test]
    fn k_escalation_finds_deeper_informative_nodes() {
        // Build a graph where the only uncovered path has length 3.
        use pathlearn_automata::Alphabet;
        use pathlearn_graph::GraphBuilder;
        let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(["a", "b"]));
        builder.add_edge("x", "a", "x1");
        builder.add_edge("x1", "a", "x2");
        builder.add_edge("x2", "b", "x3");
        // negative covers a, aa (and ε) but not aab:
        builder.add_edge("n", "a", "n1");
        builder.add_edge("n1", "a", "n2");
        let graph = builder.build();
        let sample = Sample::new().negative(graph.node_id("n").unwrap());
        let x = graph.node_id("x").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let proposal = propose(
            StrategyKind::KRandom,
            &graph,
            &sample,
            &[x],
            2,
            4,
            1000,
            &mut rng,
        );
        assert_eq!(proposal, Proposal::Node { node: x, k: 3 });
    }
}
