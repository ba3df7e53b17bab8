//! Query explanations: *why* is a node selected?
//!
//! The monadic semantics selects `ν` when `L(q) ∩ paths_G(ν) ≠ ∅`; the
//! natural explanation is a **witness path** — ideally the `≤`-minimal
//! word of that intersection, which is exactly what a user inspecting a
//! learned query wants to see (and what the paper's SCP machinery
//! computes for examples). Complements [`crate::eval`]: evaluation says
//! *which* nodes, explanation says *why*.

use crate::graph::{GraphDb, NodeId};
use pathlearn_automata::{BitSet, Dfa, StateId, Symbol, Word};
use std::collections::VecDeque;

/// The `≤`-minimal path of `node` accepted by `query`, or `None` if the
/// node is not selected.
///
/// Runs a forward BFS over the determinized product (reach-set of the
/// graph from `node`, query-DFA state): each word maps to a unique search
/// state, so the first accepting state found carries the minimal witness.
pub fn explain_selection(query: &Dfa, graph: &GraphDb, node: NodeId) -> Option<Word> {
    let q0 = query.initial();
    if query.is_final(q0) {
        return Some(Vec::new()); // ε witnesses every node
    }
    // Only symbols the DFA knows can advance the product; graph symbols
    // beyond the query's alphabet are dead (and stepping the DFA with
    // them would read out of its transition table) — same clamp as
    // `eval_binary_from`.
    let alphabet = graph.alphabet().len().min(query.alphabet_len());
    let start: Vec<NodeId> = vec![node];
    let mut seen: std::collections::HashSet<(Vec<NodeId>, StateId)> =
        std::collections::HashSet::new();
    let mut queue: VecDeque<(Vec<NodeId>, StateId, Word)> = VecDeque::new();
    seen.insert((start.clone(), q0));
    queue.push_back((start, q0, Vec::new()));
    while let Some((set, state, word)) = queue.pop_front() {
        for a in 0..alphabet {
            let sym = Symbol::from_index(a);
            let Some(next_state) = query.step(state, sym) else {
                continue;
            };
            let mut next_set = Vec::new();
            graph.step_sparse_into(&set, sym, &mut next_set);
            if next_set.is_empty() {
                continue;
            }
            let mut next_word = word.clone();
            next_word.push(sym);
            if query.is_final(next_state) {
                return Some(next_word);
            }
            let key = (next_set, next_state);
            if !seen.contains(&key) {
                seen.insert(key.clone());
                queue.push_back((key.0, key.1, next_word));
            }
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
