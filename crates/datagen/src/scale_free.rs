//! Seeded scale-free graph generation (§5.1).
//!
//! The paper's generator *"yields graphs of varying size and similar to
//! real-world graphs … scale-free graphs with a Zipfian edge label
//! distribution"* \[27\], with three times as many edges as nodes. We use
//! directed preferential attachment: each new node adds `edges_per_node`
//! edges whose endpoint is sampled proportionally to degree+1 (realized by
//! the classic repeated-endpoints trick), with random orientation so
//! cycles exist (the Kleene-star queries need them).

use crate::zipf::Zipf;
use pathlearn_automata::{Alphabet, Symbol};
use pathlearn_graph::{GraphBuilder, GraphDb, NodeId};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Configuration for [`scale_free_graph`].
#[derive(Clone, Debug)]
pub struct ScaleFreeConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Edges added per new node (the paper uses 3× nodes, i.e. 3).
    pub edges_per_node: usize,
    /// Alphabet of edge labels (label order fixes the Zipf ranks).
    pub alphabet: Alphabet,
    /// Zipf exponent of the label distribution (ignored when
    /// `label_weights` is set).
    pub label_exponent: f64,
    /// Explicit label weights overriding the Zipf law (rank = intern
    /// order). Must match the alphabet length when present.
    pub label_weights: Option<Vec<f64>>,
    /// RNG seed.
    pub seed: u64,
}

impl ScaleFreeConfig {
    /// The configuration used for the paper's `syn` graphs: `nodes` nodes,
    /// 3 edges per node, a 30-label alphabet, Zipf(1.0) labels.
    pub fn paper_synthetic(nodes: usize, seed: u64) -> Self {
        let labels: Vec<String> = (0..30).map(|i| format!("l{i:02}")).collect();
        ScaleFreeConfig {
            nodes,
            edges_per_node: 3,
            alphabet: Alphabet::from_labels(labels),
            label_exponent: 1.0,
            label_weights: None,
            seed,
        }
    }
}

/// Generates a directed scale-free multigraph (parallel edges with equal
/// labels are deduplicated by the builder).
pub fn scale_free_graph(config: &ScaleFreeConfig) -> GraphDb {
    assert!(config.nodes > 0, "graph needs at least one node");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let zipf = match &config.label_weights {
        Some(weights) => {
            assert_eq!(
                weights.len(),
                config.alphabet.len(),
                "one weight per label required"
            );
            Zipf::from_weights(weights.iter().copied())
        }
        None => Zipf::new(config.alphabet.len(), config.label_exponent),
    };
    let symbols: Vec<Symbol> = config.alphabet.symbols().collect();

    let mut builder = GraphBuilder::with_alphabet(config.alphabet.clone());
    builder.add_nodes("n", config.nodes);

    // Preferential attachment: `endpoints` holds one entry per edge
    // endpoint, so uniform sampling from it is degree-proportional.
    let mut endpoints: Vec<NodeId> = vec![0];
    for node in 1..config.nodes as NodeId {
        for _ in 0..config.edges_per_node {
            // Degree-proportional target with a uniform smoothing term.
            let target = if rng.gen_bool(0.2) {
                rng.gen_range(0..node)
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            let label = symbols[zipf.sample(&mut rng)];
            // Random orientation so directed cycles arise.
            let (src, dst) = if rng.gen_bool(0.5) {
                (node, target)
            } else {
                (target, node)
            };
            builder.add_edge_ids(src, label, dst);
            endpoints.push(target);
            endpoints.push(node);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathlearn_graph::Dir;

    #[test]
    fn sizes_match_configuration() {
        let graph = scale_free_graph(&ScaleFreeConfig::paper_synthetic(1000, 42));
        assert_eq!(graph.num_nodes(), 1000);
        // ~3 edges per node minus dedup losses.
        assert!(graph.num_edges() > 2500 && graph.num_edges() <= 3000);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = scale_free_graph(&ScaleFreeConfig::paper_synthetic(300, 7));
        let b = scale_free_graph(&ScaleFreeConfig::paper_synthetic(300, 7));
        assert_eq!(a.num_edges(), b.num_edges());
        let edges_a: Vec<_> = a.edges().collect();
        let edges_b: Vec<_> = b.edges().collect();
        assert_eq!(edges_a, edges_b);
        let c = scale_free_graph(&ScaleFreeConfig::paper_synthetic(300, 8));
        assert_ne!(edges_a, c.edges().collect::<Vec<_>>());
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let graph = scale_free_graph(&ScaleFreeConfig::paper_synthetic(2000, 42));
        let mut degrees: Vec<usize> = graph
            .nodes()
            .map(|n| graph.degree(Dir::Out, n) + graph.degree(Dir::In, n))
            .collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        // Hubs: the top node has far more than the median degree.
        let median = degrees[degrees.len() / 2];
        assert!(
            degrees[0] >= median * 5,
            "top {} median {median}",
            degrees[0]
        );
    }

    #[test]
    fn labels_are_zipf_skewed() {
        let graph = scale_free_graph(&ScaleFreeConfig::paper_synthetic(2000, 42));
        let mut counts = vec![0usize; graph.alphabet().len()];
        for (_, sym, _) in graph.edges() {
            counts[sym.index()] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max > min * 4, "max {max} min {min}");
    }

    #[test]
    fn contains_directed_cycles() {
        let graph = scale_free_graph(&ScaleFreeConfig::paper_synthetic(500, 42));
        let cyclic = graph.nodes().any(|n| graph.has_infinite_paths(n));
        assert!(cyclic, "Kleene-star workloads need cycles");
    }
}
