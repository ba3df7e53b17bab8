//! Simulated AliBaba-like biological graph (§5.1 substitution).
//!
//! The paper uses the semantic (protein–protein interaction) part of
//! **AliBaba** \[36\]: ≈3k nodes and ≈8k edges extracted by text mining
//! from PubMed, shared privately by the authors of \[27\]. The dataset is
//! not publicly redistributable, so this module generates a stand-in with
//! the same published characteristics:
//!
//! * ≈3,000 nodes, ≈8,000 edges;
//! * hub-dominated (scale-free) degree structure, as in curated PPI
//!   networks;
//! * 25 interaction-type labels with a skewed (Zipfian) frequency
//!   distribution, enough to build the Table 1 disjunction classes
//!   (`A`, `C`, `E`, `I` with up to 10 possibly-overlapping symbols).
//!
//! What the learning experiments actually exercise — SCP search over
//! skewed adjacency, generalization against large negative path
//! languages, selectivities spanning 0.03%–22% — depends only on these
//! statistics, not on the identity of the proteins.

use crate::scale_free::{scale_free_graph, ScaleFreeConfig};
use pathlearn_automata::Alphabet;
use pathlearn_graph::GraphDb;

/// Interaction-type labels for the simulated biological graph; frequency
/// rank follows list order (earlier = more frequent under Zipf).
pub const INTERACTION_LABELS: [&str; 25] = [
    "binds",
    "activates",
    "inhibits",
    "phosphorylates",
    "regulates",
    "expresses",
    "interacts",
    "represses",
    "methylates",
    "acetylates",
    "ubiquitinates",
    "transports",
    "cleaves",
    "stabilizes",
    "degrades",
    "localizes",
    "dimerizes",
    "recruits",
    "sequesters",
    "modifies",
    "catalyzes",
    "glycosylates",
    "oxidizes",
    "isomerizes",
    "demethylates",
];

/// Number of nodes of the simulated graph (AliBaba's semantic part: ~3k).
pub const ALIBABA_NODES: usize = 3000;

/// Generates the simulated AliBaba-like graph (≈3k nodes / ≈8k edges).
///
/// The label *order inside the alphabet is sorted* (as everywhere in this
/// workspace) but the Zipf frequency ranks follow
/// [`INTERACTION_LABELS`] order, so `binds` is the most frequent label.
pub fn alibaba_like(seed: u64) -> GraphDb {
    // Keep frequency rank == INTERACTION_LABELS order by interning in
    // that order (Alphabet::from_labels would sort alphabetically).
    let mut alphabet = Alphabet::new();
    for label in INTERACTION_LABELS {
        alphabet.intern(label);
    }
    // Two-regime frequency profile, as in curated interaction corpora:
    // a Zipfian head of 15 common interaction types plus a long tail of
    // 10 rare ones (single-digit edge counts on 8k edges). The rare tail
    // is what gives the Table 1 spectrum its 0.03%-selectivity end
    // (bio1 = b·A·A* with b a rare label selects ~1 node).
    let mut weights: Vec<f64> = (0..15).map(|i| 1.0 / (i + 1) as f64).collect();
    for i in 0..10 {
        weights.push(2.2e-3 / (1 << (i / 3)) as f64);
    }
    let config = ScaleFreeConfig {
        nodes: ALIBABA_NODES,
        // ≈8k edges over 3k nodes ≈ 2.7 per node; 3 per node with the
        // builder's dedup lands close to the target.
        edges_per_node: 3,
        alphabet,
        label_exponent: 1.0,
        label_weights: Some(weights),
        seed,
    };
    scale_free_graph(&config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_statistics() {
        let graph = alibaba_like(42);
        assert_eq!(graph.num_nodes(), 3000);
        // "about 3k nodes and 8k edges": allow the builder's dedup slack.
        assert!(
            graph.num_edges() > 7000 && graph.num_edges() < 9200,
            "{} edges",
            graph.num_edges()
        );
        assert_eq!(graph.alphabet().len(), 25);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = alibaba_like(1);
        let b = alibaba_like(1);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn frequent_labels_lead_the_distribution() {
        let graph = alibaba_like(42);
        let binds = graph.alphabet().symbol("binds").unwrap();
        let rare = graph.alphabet().symbol("demethylates").unwrap();
        let mut counts = vec![0usize; graph.alphabet().len()];
        for (_, sym, _) in graph.edges() {
            counts[sym.index()] += 1;
        }
        assert!(counts[binds.index()] > counts[rare.index()] * 3);
    }
}
