//! Property-based tests for the label-partitioned CSR kernels and the
//! level-synchronous frontier evaluators: on random graphs and random
//! regex queries, the new fast paths must agree exactly with the naive
//! references and with the seed's queue-based algorithm.

use pathlearn::automata::BitSet;
use pathlearn::graph::eval::{
    eval_binary_from, eval_monadic, eval_monadic_naive, eval_monadic_queued,
};
use pathlearn::graph::paths::paths2_nfa;
use pathlearn::graph::{Dir, ScpFinder};
use pathlearn::prelude::*;
use proptest::prelude::*;

const LABELS: [&str; 3] = ["a", "b", "c"];

/// Strategy: a random small graph over {a, b, c}, possibly disconnected,
/// with self-loops and parallel labels.
fn arb_graph() -> impl Strategy<Value = GraphDb> {
    (
        1usize..9,
        proptest::collection::vec((0u32..9, 0usize..3, 0u32..9), 0..24),
    )
        .prop_map(|(n, edges)| {
            let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
            for i in 0..n {
                builder.add_node(&format!("n{i}"));
            }
            let n = n as u32;
            for (src, sym, dst) in edges {
                builder.add_edge_ids(src % n, Symbol::from_index(sym), dst % n);
            }
            builder.build()
        })
}

/// Strategy: a random regex AST over {a, b, c} including ε and stars.
fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::Epsilon),
        (0usize..3).prop_map(|i| Regex::Symbol(Symbol::from_index(i))),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::concat),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::alt),
            inner.prop_map(Regex::star),
        ]
    })
}

/// Strategy: a node subset given as a bitmask over up to 9 nodes.
fn arb_mask() -> impl Strategy<Value = u32> {
    0u32..512
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The frontier step preserves the semantics of the seed's per-node
    /// step: the neighbour union over the chosen symbol, in each direction.
    #[test]
    fn step_frontier_matches_per_node_reference(
        graph in arb_graph(),
        mask in arb_mask(),
        sym in 0usize..3,
    ) {
        let n = graph.num_nodes();
        let sym = Symbol::from_index(sym);
        let frontier = BitSet::from_indices(n, (0..n).filter(|&i| mask & (1 << i) != 0));
        for dir in Dir::BOTH {
            let mut reference = BitSet::new(n);
            for node in frontier.iter() {
                for &(_, endpoint) in graph.neighbors(dir, node as NodeId, sym) {
                    reference.insert(endpoint as usize);
                }
            }
            prop_assert_eq!(&graph.step(dir, &frontier, sym), &reference);
        }
        // The sparse kernel agrees with the dense one.
        let sparse: Vec<NodeId> = frontier.iter().map(|i| i as NodeId).collect();
        let mut stepped = Vec::new();
        graph.step_sparse_into(&sparse, sym, &mut stepped);
        prop_assert_eq!(
            BitSet::from_indices(n, stepped.iter().map(|&t| t as usize)),
            graph.step(Dir::Out, &frontier, sym)
        );
    }

    /// The frontier evaluator agrees with both the per-node forward
    /// product reference and the seed's queued backward BFS.
    #[test]
    fn eval_monadic_agrees_with_references(graph in arb_graph(), regex in arb_regex()) {
        let dfa = regex.to_dfa(3);
        let fast = eval_monadic(&dfa, &graph);
        prop_assert_eq!(&fast, &eval_monadic_naive(&dfa, &graph));
        prop_assert_eq!(&fast, &eval_monadic_queued(&dfa, &graph));
    }

    /// Binary-semantics evaluation agrees with the per-pair forward
    /// product (paths2 NFA intersection emptiness) reference.
    #[test]
    fn eval_binary_agrees_with_product_reference(
        graph in arb_graph(),
        regex in arb_regex(),
        source in 0u32..9,
    ) {
        let dfa = regex.to_dfa(3);
        let source = source % graph.num_nodes() as u32;
        let ends = eval_binary_from(&dfa, &graph, source);
        for target in graph.nodes() {
            let nfa = paths2_nfa(&graph, source, target);
            let expected =
                !pathlearn::automata::product::dfa_nfa_intersection_is_empty(&dfa, &nfa);
            prop_assert_eq!(
                ends.contains(target as usize),
                expected,
                "{} -> {}",
                source,
                target
            );
        }
    }

    /// SCP search on the interned-frontier representation still matches
    /// naive canonical enumeration (guards the seen-set rework).
    #[test]
    fn scp_interning_matches_naive(
        graph in arb_graph(),
        negmask in arb_mask(),
        k in 0usize..4,
    ) {
        let negatives: Vec<NodeId> = (0..graph.num_nodes() as u32)
            .filter(|&i| negmask & (1 << i) != 0)
            .collect();
        let mut finder = ScpFinder::new(&graph, &negatives);
        for node in graph.nodes() {
            let fast = finder.scp(node, k);
            let slow = pathlearn::graph::scp::scp_naive(&graph, node, &negatives, k);
            prop_assert_eq!(fast, slow, "node {}", node);
        }
    }
}
