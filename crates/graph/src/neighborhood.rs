//! k-neighborhood extraction (interactive scenario, Figure 9 step 4).
//!
//! Before asking the user to label a node, the interactive scenario
//! *"zooms out on its neighborhood … producing a small, easy to visualize
//! fragment of the initial graph"*; the paper suggests all nodes within
//! distance k (the SCP length bound) suffice for the user to decide. This
//! module extracts that fragment as a standalone [`GraphDb`] preserving
//! node names and labels.

use crate::graph::{Dir, GraphBuilder, GraphDb, NodeId};
use pathlearn_automata::BitSet;

/// A extracted neighborhood fragment.
#[derive(Clone, Debug)]
pub struct Neighborhood {
    /// The fragment as a graph of its own (names preserved).
    pub fragment: GraphDb,
    /// The center node's id within the fragment.
    pub center: NodeId,
    /// Original ids of the fragment's nodes, indexed by fragment id.
    pub original_ids: Vec<NodeId>,
}

/// Extracts the subgraph induced by all nodes within **forward** distance
/// `radius` of `center`, plus (optionally) backward distance for context.
///
/// Level-synchronous **sparse** BFS: neighborhoods are tiny fragments of
/// large graphs, so the frontier is a node vector expanded one node's
/// edges at a time ([`GraphDb::edges_of`]: its cell in each label's run)
/// with a [`BitSet`] for O(1) dedup — cost proportional to the frontier
/// times `|Σ|` plus the edges actually touched, never to `|V|·|Σ|`.
pub fn neighborhood(
    graph: &GraphDb,
    center: NodeId,
    radius: usize,
    include_backward: bool,
) -> Neighborhood {
    let n = graph.num_nodes();
    let mut keep = BitSet::from_indices(n, [center as usize]);
    let mut frontier: Vec<NodeId> = vec![center];
    let mut next_frontier: Vec<NodeId> = Vec::new();
    for _ in 0..radius {
        if frontier.is_empty() {
            break;
        }
        next_frontier.clear();
        for &node in &frontier {
            for (_, t) in graph.edges_of(Dir::Out, node) {
                if keep.insert(t as usize) {
                    next_frontier.push(t);
                }
            }
            if include_backward {
                for (_, s) in graph.edges_of(Dir::In, node) {
                    if keep.insert(s as usize) {
                        next_frontier.push(s);
                    }
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next_frontier);
    }

    let mut builder = GraphBuilder::with_alphabet(graph.alphabet().clone());
    let mut original_ids = Vec::new();
    let mut fragment_id: Vec<Option<NodeId>> = vec![None; graph.num_nodes()];
    for node in graph.nodes() {
        if keep.contains(node as usize) {
            let id = builder.add_node(graph.node_name(node));
            fragment_id[node as usize] = Some(id);
            original_ids.push(node);
        }
    }
    for (src, sym, dst) in graph.edges() {
        if let (Some(s), Some(d)) = (fragment_id[src as usize], fragment_id[dst as usize]) {
            builder.add_edge_ids(s, sym, d);
        }
    }
    let fragment = builder.build();
    let center = fragment_id[center as usize].expect("center kept");
    Neighborhood {
        fragment,
        center,
        original_ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::figure3_g0;

    #[test]
    fn forward_neighborhood_of_v5() {
        let graph = figure3_g0();
        let v5 = graph.node_id("v5").unwrap();
        let hood = neighborhood(&graph, v5, 2, false);
        // v5 reaches only v4 going forward.
        assert_eq!(hood.fragment.num_nodes(), 2);
        assert_eq!(hood.fragment.node_name(hood.center), "v5");
        assert!(hood.fragment.node_id("v4").is_some());
        assert_eq!(hood.fragment.num_edges(), 2); // v5 -a,b-> v4
    }

    #[test]
    fn radius_zero_is_just_the_center() {
        let graph = figure3_g0();
        let v1 = graph.node_id("v1").unwrap();
        let hood = neighborhood(&graph, v1, 0, true);
        assert_eq!(hood.fragment.num_nodes(), 1);
        assert_eq!(hood.fragment.num_edges(), 0);
        assert_eq!(hood.original_ids, vec![v1]);
    }

    #[test]
    fn backward_neighborhood_includes_predecessors() {
        let graph = figure3_g0();
        let v4 = graph.node_id("v4").unwrap();
        let fwd = neighborhood(&graph, v4, 1, false);
        assert_eq!(fwd.fragment.num_nodes(), 1); // v4 is a sink
        let both = neighborhood(&graph, v4, 1, true);
        // Predecessors of v4: v3, v5, v6.
        assert_eq!(both.fragment.num_nodes(), 4);
    }

    #[test]
    fn fragment_paths_are_subsets_of_original() {
        let graph = figure3_g0();
        let v1 = graph.node_id("v1").unwrap();
        let hood = neighborhood(&graph, v1, 2, false);
        let center = hood.center;
        for word in hood.fragment.enumerate_paths(center, 2, 1000) {
            assert!(graph.covers(&word, &[v1]));
        }
    }
}
