//! Query explanations: *why* is a node selected?
//!
//! The monadic semantics selects `ν` when `L(q) ∩ paths_G(ν) ≠ ∅`; the
//! natural explanation is a **witness path** — ideally the `≤`-minimal
//! word of that intersection, which is exactly what a user inspecting a
//! learned query wants to see (and what the paper's SCP machinery
//! computes for examples). Complements [`crate::eval`]: evaluation says
//! *which* nodes, explanation says *why*.

use crate::graph::{Dir, GraphDb, NodeId};
use pathlearn_automata::{BitSet, Dfa, StateId, Symbol, Word};
use std::collections::{HashSet, VecDeque};
use std::ops::Range;

/// The `≤`-minimal path of `node` accepted by `query`, or `None` if the
/// node is not selected: the word of [`explain_path`].
pub fn explain_selection(query: &Dfa, graph: &GraphDb, node: NodeId) -> Option<Word> {
    let steps = explain_path(query, graph, node)?;
    Some(steps.into_iter().map(|(sym, _)| sym).collect())
}

/// The `≤`-minimal path of `node` accepted by `query` together with a
/// node sequence matching it, as `(label, node reached)` steps from
/// `node`; `None` if the node is not selected.
///
/// A parent-pointer BFS over product pairs `(ν, q)`, `O(|E|·|Q|)`: each
/// pair is expanded once, from the `≤`-smallest word that reaches it.
/// Pairs first reached by the same word form a **group** (one DFA
/// state, a run of `found`); groups are queued in `≤`-order of their
/// word and a group is stepped symbol by symbol across *all* its
/// members, so the groups it spawns are queued in `≤`-order too. (A
/// plain per-pair queue is not enough: two pairs tied on the word `w`
/// would enqueue `w·c` before `w·a`.) The first group to land on an
/// accepting state therefore carries the minimal witness, which is
/// read back along the parent pointers.
pub fn explain_path(query: &Dfa, graph: &GraphDb, node: NodeId) -> Option<Vec<(Symbol, NodeId)>> {
    let q0 = query.initial();
    if query.is_final(q0) {
        return Some(Vec::new()); // ε witnesses every node
    }
    // Only symbols the DFA knows can advance the product; graph symbols
    // beyond the query's alphabet are dead (and stepping the DFA with
    // them would read out of its transition table) — same clamp as
    // `eval_binary_from`.
    let alphabet = graph.alphabet().len().min(query.alphabet_len());
    // Discovered pairs' nodes in discovery order, each with its parent's
    // index and the symbol stepped from it (unused for the root).
    let mut found: Vec<(NodeId, usize, Symbol)> = vec![(node, 0, Symbol::from_index(0))];
    let mut seen: HashSet<(NodeId, StateId)> = HashSet::from([(node, q0)]);
    let mut groups: VecDeque<(StateId, Range<usize>)> = VecDeque::from([(q0, 0..1)]);
    while let Some((state, members)) = groups.pop_front() {
        for a in 0..alphabet {
            let sym = Symbol::from_index(a);
            let Some(next) = query.step(state, sym) else {
                continue;
            };
            let start = found.len();
            for parent in members.clone() {
                graph.for_each_neighbor(Dir::Out, found[parent].0, sym, |reached| {
                    if seen.insert((reached, next)) {
                        found.push((reached, parent, sym));
                    }
                });
            }
            if found.len() == start {
                continue;
            }
            if query.is_final(next) {
                let mut steps = Vec::new();
                let mut at = start;
                while at != 0 {
                    let (reached, parent, sym) = found[at];
                    steps.push((sym, reached));
                    at = parent;
                }
                steps.reverse();
                return Some(steps);
            }
            groups.push_back((next, start..found.len()));
        }
    }
    None
}

/// Witnesses for every selected node of a query, as `(node, path)` pairs
/// in node order. Nodes not selected are omitted.
pub fn explain_all(query: &Dfa, graph: &GraphDb) -> Vec<(NodeId, Word)> {
    let selected: BitSet = crate::eval::eval_monadic(query, graph);
    selected
        .iter()
        .map(|n| {
            let node = n as NodeId;
            let witness = explain_selection(query, graph, node)
                .expect("selected nodes always have a witness");
            (node, witness)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::figure3_g0;
    use pathlearn_automata::Regex;

    fn query(graph: &GraphDb, expr: &str) -> Dfa {
        Regex::parse(expr, graph.alphabet())
            .unwrap()
            .to_dfa(graph.alphabet().len())
    }

    /// An independent check of [`explain_path`], sharing no code with
    /// it or the evaluator: the node path exists edge by edge, its word
    /// is accepted, no `≤`-smaller word of `paths_G(node)` is (brute
    /// force over [`GraphDb::enumerate_paths`], for witnesses short
    /// enough to enumerate), and a node without a witness has no
    /// accepted path of enumerable length.
    fn verify_witness(query: &Dfa, graph: &GraphDb, node: NodeId) {
        const ENUMERABLE: usize = 6;
        let accepted = |max_len: usize| {
            graph
                .enumerate_paths(node, max_len, usize::MAX)
                .into_iter()
                .find(|word| query.accepts(word))
        };
        let Some(steps) = explain_path(query, graph, node) else {
            assert_eq!(accepted(ENUMERABLE), None, "node {node} has a witness");
            return;
        };
        let mut at = node;
        for &(sym, reached) in &steps {
            assert!(
                graph.edges().any(|edge| edge == (at, sym, reached)),
                "no edge {at} -{sym:?}-> {reached}"
            );
            at = reached;
        }
        let word: Word = steps.iter().map(|&(sym, _)| sym).collect();
        assert!(query.accepts(&word), "{word:?} is not accepted");
        assert_eq!(explain_selection(query, graph, node), Some(word.clone()));
        if word.len() <= ENUMERABLE {
            assert_eq!(accepted(word.len()), Some(word), "node {node}: not minimal");
        }
    }

    #[test]
    fn witnesses_verify_on_g0() {
        let graph = figure3_g0();
        for expr in ["a", "(a·b)*·c", "b·a", "c·a*", "(a+b)·(a+b)·(a+b)·c", "eps"] {
            let q = query(&graph, expr);
            for node in graph.nodes() {
                verify_witness(&q, &graph, node);
            }
        }
    }

    /// Two pairs tied on the word `a` (`p1`, `p2`): a per-pair queue
    /// expands `p1`'s `c`-edge before `p2`'s `a`-edge and answers
    /// `a·c·a`; the minimal witness is `a·a·b`.
    #[test]
    fn tied_pairs_do_not_reorder_the_search() {
        let mut builder = crate::GraphBuilder::new();
        for (src, label, dst) in [
            ("s", "a", "p1"),
            ("s", "a", "p2"),
            ("p1", "c", "x"),
            ("p2", "a", "y"),
            ("x", "a", "z"),
            ("y", "b", "z"),
        ] {
            builder.add_edge(src, label, dst);
        }
        let graph = builder.build();
        let q = query(&graph, "(a+b+c)·(a+b+c)·(a+b+c)");
        let s = graph.node_id("s").unwrap();
        assert_eq!(
            explain_selection(&q, &graph, s),
            Some(graph.alphabet().parse_word("a a b").unwrap())
        );
        verify_witness(&q, &graph, s);
    }

    proptest::proptest! {
        #[test]
        fn witnesses_verify_on_random_graphs(
            n in 1u32..6,
            edges in proptest::collection::vec((0u32..6, 0usize..3, 0u32..6), 0..14),
            states in 1usize..4,
            transitions in proptest::collection::vec((0usize..4, 0usize..3, 0usize..4), 0..10),
            finals in proptest::collection::vec(0usize..4, 0..3),
        ) {
            let labels = pathlearn_automata::Alphabet::from_labels(["a", "b", "c"]);
            let mut builder = crate::GraphBuilder::with_alphabet(labels);
            builder.add_nodes("n", n as usize);
            for (src, sym, dst) in edges {
                builder.add_edge_ids(src % n, Symbol::from_index(sym), dst % n);
            }
            let graph = builder.build();
            let mut q = Dfa::new(states, 3, 0);
            for (p, sym, t) in transitions {
                q.set_transition(
                    (p % states) as StateId,
                    Symbol::from_index(sym),
                    (t % states) as StateId,
                );
            }
            for f in finals {
                q.set_final((f % states) as StateId);
            }
            let selected = crate::eval::eval_monadic(&q, &graph);
            for node in graph.nodes() {
                verify_witness(&q, &graph, node);
                proptest::prop_assert_eq!(
                    explain_path(&q, &graph, node).is_some(),
                    selected.contains(node as usize)
                );
            }
        }
    }

    #[test]
    fn witnesses_on_g0_are_the_minimal_accepted_paths() {
        let graph = figure3_g0();
        let q = query(&graph, "(a·b)*·c");
        let alphabet = graph.alphabet();
        let v1 = graph.node_id("v1").unwrap();
        let v3 = graph.node_id("v3").unwrap();
        assert_eq!(
            explain_selection(&q, &graph, v1),
            Some(alphabet.parse_word("a b c").unwrap())
        );
        assert_eq!(
            explain_selection(&q, &graph, v3),
            Some(alphabet.parse_word("c").unwrap())
        );
        // Unselected node: no witness.
        let v5 = graph.node_id("v5").unwrap();
        assert_eq!(explain_selection(&q, &graph, v5), None);
    }

    #[test]
    fn witness_iff_selected_and_is_valid() {
        let graph = figure3_g0();
        for expr in ["a", "(a·b)*·c", "b·a", "c·a*"] {
            let q = query(&graph, expr);
            let selected = crate::eval::eval_monadic(&q, &graph);
            for node in graph.nodes() {
                match explain_selection(&q, &graph, node) {
                    Some(witness) => {
                        assert!(selected.contains(node as usize), "{expr} node {node}");
                        assert!(q.accepts(&witness), "{expr}");
                        assert!(graph.covers(&witness, &[node]), "{expr}");
                    }
                    None => {
                        assert!(!selected.contains(node as usize), "{expr} node {node}")
                    }
                }
            }
        }
    }

    #[test]
    fn epsilon_query_witnessed_by_empty_path() {
        let graph = figure3_g0();
        let q = query(&graph, "eps + a·b");
        for node in graph.nodes() {
            assert_eq!(explain_selection(&q, &graph, node), Some(vec![]));
        }
    }

    #[test]
    fn witness_with_smaller_query_alphabet() {
        // A DFA over fewer symbols than the graph must not index out of
        // its transition table (regression: same out-of-alphabet aliasing
        // class as `dfa_nfa_intersection_is_empty`); symbols it does not
        // know are dead.
        let graph = figure3_g0(); // 3 labels
        let mut only_a = Dfa::new(2, 1, 0); // L = {a} over a 1-symbol alphabet
        only_a.set_transition(0, Symbol::from_index(0), 1);
        only_a.set_final(1);
        let a = graph.alphabet().symbol("a").unwrap();
        let v1 = graph.node_id("v1").unwrap();
        assert_eq!(explain_selection(&only_a, &graph, v1), Some(vec![a]));
        let v4 = graph.node_id("v4").unwrap(); // no out-edges at all
        assert_eq!(explain_selection(&only_a, &graph, v4), None);
        let selected = crate::eval::eval_monadic(&only_a, &graph);
        for (node, witness) in explain_all(&only_a, &graph) {
            assert!(selected.contains(node as usize));
            assert_eq!(witness, vec![a]);
        }
    }

    #[test]
    fn explain_all_covers_exactly_the_selection() {
        let graph = figure3_g0();
        let q = query(&graph, "a·b");
        let all = explain_all(&q, &graph);
        let selected = crate::eval::eval_monadic(&q, &graph);
        assert_eq!(all.len(), selected.len());
        for (node, witness) in all {
            assert!(selected.contains(node as usize));
            assert_eq!(witness.len(), 2);
        }
    }
}
