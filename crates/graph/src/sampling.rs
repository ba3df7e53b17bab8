//! Representative subgraph sampling (the paper's future work, §6).
//!
//! *"We envision several directions of our work, one of which being to
//! sample a graph and finding informative nodes on representative
//! samples, in the spirit of \[31\]"* (Leskovec & Faloutsos, KDD 2006).
//! This module implements the two classic samplers from that line —
//! **random walk** (with restart) and **forest fire** — producing induced
//! subgraphs with a mapping back to the original node ids, so interactive
//! learning can run on the sample and the learned query be evaluated on
//! the full graph.

use crate::graph::{Dir, GraphBuilder, GraphDb, NodeId};
use pathlearn_automata::BitSet;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Which sampling process to use.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SamplingMethod {
    /// Random walk with 15% restart probability (back to a random seed
    /// node), following out-edges; stuck walks restart.
    RandomWalk,
    /// Forest fire: burn from a random seed, geometrically recruiting
    /// out-neighbors with the given forward-burning probability.
    ForestFire {
        /// Probability scale for recruiting each neighbor (0..1).
        forward_probability: f64,
    },
}

/// An induced subgraph with its provenance.
#[derive(Clone, Debug)]
pub struct SampledGraph {
    /// The induced subgraph (node names preserved).
    pub graph: GraphDb,
    /// For each sample node id, the original node id.
    pub original_ids: Vec<NodeId>,
}

impl SampledGraph {
    /// Maps a sample node back to the original graph.
    pub fn original_of(&self, sample_node: NodeId) -> NodeId {
        self.original_ids[sample_node as usize]
    }
}

/// Samples approximately `target_nodes` nodes with the given method and
/// returns the induced subgraph. Deterministic given `seed`.
pub fn sample_subgraph(
    graph: &GraphDb,
    target_nodes: usize,
    method: SamplingMethod,
    seed: u64,
) -> SampledGraph {
    assert!(graph.num_nodes() > 0, "cannot sample an empty graph");
    let target = target_nodes.min(graph.num_nodes()).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    // Kept nodes live in a BitSet so membership tests, the kept counter,
    // and the induced-subgraph pass below share the word-level machinery
    // of the frontier kernels.
    let mut keep = BitSet::new(graph.num_nodes());
    let mut kept = 0usize;

    let mark = |node: NodeId, keep: &mut BitSet, kept: &mut usize| {
        if keep.insert(node as usize) {
            *kept += 1;
        }
    };

    match method {
        SamplingMethod::RandomWalk => {
            let seed_node = rng.gen_range(0..graph.num_nodes()) as NodeId;
            let mut current = seed_node;
            mark(current, &mut keep, &mut kept);
            // Bounded effort: the walk may wander in a small component;
            // restart from a fresh random node when progress stalls.
            let mut steps_since_progress = 0usize;
            while kept < target {
                let restart = rng.gen_bool(0.15) || steps_since_progress > 10 * target;
                if restart {
                    current = rng.gen_range(0..graph.num_nodes()) as NodeId;
                } else {
                    let degree = graph.degree(Dir::Out, current);
                    current = if degree == 0 {
                        rng.gen_range(0..graph.num_nodes()) as NodeId
                    } else {
                        let pick = rng.gen_range(0..degree);
                        let edge = graph.edges_of(Dir::Out, current).nth(pick);
                        edge.expect("the degree counts the walk").1
                    };
                }
                let before = kept;
                mark(current, &mut keep, &mut kept);
                steps_since_progress = if kept > before {
                    0
                } else {
                    steps_since_progress + 1
                };
            }
        }
        SamplingMethod::ForestFire {
            forward_probability,
        } => {
            assert!(
                (0.0..=1.0).contains(&forward_probability),
                "probability out of range"
            );
            while kept < target {
                // Ignite a new fire at an unburned random node.
                let start = rng.gen_range(0..graph.num_nodes()) as NodeId;
                let mut queue = VecDeque::from([start]);
                mark(start, &mut keep, &mut kept);
                while let Some(node) = queue.pop_front() {
                    if kept >= target {
                        break;
                    }
                    for (_, next) in graph.edges_of(Dir::Out, node) {
                        if kept >= target {
                            break;
                        }
                        if !keep.contains(next as usize) && rng.gen_bool(forward_probability) {
                            mark(next, &mut keep, &mut kept);
                            queue.push_back(next);
                        }
                    }
                }
            }
        }
    }

    // Build the induced subgraph.
    let mut builder = GraphBuilder::with_alphabet(graph.alphabet().clone());
    let mut original_ids = Vec::with_capacity(kept);
    let mut sample_id: Vec<Option<NodeId>> = vec![None; graph.num_nodes()];
    for node in keep.iter() {
        let id = builder.add_node(graph.node_name(node as NodeId));
        sample_id[node] = Some(id);
        original_ids.push(node as NodeId);
    }
    for (src, sym, dst) in graph.edges() {
        if let (Some(s), Some(d)) = (sample_id[src as usize], sample_id[dst as usize]) {
            builder.add_edge_ids(s, sym, d);
        }
    }
    SampledGraph {
        graph: builder.build(),
        original_ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::figure3_g0;

    #[test]
    fn sample_sizes_and_mapping() {
        let graph = figure3_g0();
        for method in [
            SamplingMethod::RandomWalk,
            SamplingMethod::ForestFire {
                forward_probability: 0.5,
            },
        ] {
            let sampled = sample_subgraph(&graph, 4, method, 42);
            assert_eq!(sampled.graph.num_nodes(), 4, "{method:?}");
            assert_eq!(sampled.original_ids.len(), 4);
            // Names preserved and mapping coherent.
            for node in sampled.graph.nodes() {
                let original = sampled.original_of(node);
                assert_eq!(sampled.graph.node_name(node), graph.node_name(original));
            }
        }
    }

    #[test]
    fn induced_edges_exist_in_original() {
        let graph = figure3_g0();
        let sampled = sample_subgraph(
            &graph,
            5,
            SamplingMethod::ForestFire {
                forward_probability: 0.7,
            },
            7,
        );
        for (src, sym, dst) in sampled.graph.edges() {
            let osrc = sampled.original_of(src);
            let odst = sampled.original_of(dst);
            assert!(graph.successors(osrc, sym).iter().any(|&(_, t)| t == odst));
        }
    }

    #[test]
    fn sample_paths_are_subset_of_original_paths() {
        // Induced subgraphs only remove paths, never add them — the
        // property that makes learned-on-sample queries sound to evaluate
        // on the full graph.
        let graph = figure3_g0();
        let sampled = sample_subgraph(&graph, 5, SamplingMethod::RandomWalk, 3);
        for node in sampled.graph.nodes() {
            let original = sampled.original_of(node);
            for word in sampled.graph.enumerate_paths(node, 3, 500) {
                assert!(graph.covers(&word, &[original]));
            }
        }
    }

    #[test]
    fn full_size_sample_is_whole_graph() {
        let graph = figure3_g0();
        let sampled = sample_subgraph(&graph, 100, SamplingMethod::RandomWalk, 1);
        assert_eq!(sampled.graph.num_nodes(), graph.num_nodes());
        assert_eq!(sampled.graph.num_edges(), graph.num_edges());
    }

    #[test]
    fn deterministic_given_seed() {
        let graph = figure3_g0();
        let a = sample_subgraph(&graph, 4, SamplingMethod::RandomWalk, 9);
        let b = sample_subgraph(&graph, 4, SamplingMethod::RandomWalk, 9);
        assert_eq!(a.original_ids, b.original_ids);
    }
}
