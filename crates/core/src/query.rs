//! Path queries (paper §2).
//!
//! A path query selects the nodes having at least one path in the language
//! of a regular expression; it is represented by its **canonical DFA** and
//! its size is the DFA's state count. The paper normalizes queries to be
//! **prefix-free** — the unique minimal representative of each equivalence
//! class under query equivalence (`a` ≡ `a·b*`, etc.).

use pathlearn_automata::state_elim::dfa_to_regex;
use pathlearn_automata::{Alphabet, BitSet, Dfa, Regex};
use pathlearn_graph::{GraphDb, NodeId};
use std::fmt;

/// A path query: a regular language in canonical (minimal) DFA form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathQuery {
    dfa: Dfa,
}

impl PathQuery {
    /// Wraps a DFA, canonicalizing it (minimize + canonical numbering).
    pub fn from_dfa(dfa: &Dfa) -> Self {
        PathQuery {
            dfa: dfa.minimize(),
        }
    }

    /// Builds a query from a regex AST.
    pub fn from_regex(regex: &Regex, alphabet_len: usize) -> Self {
        PathQuery {
            dfa: regex.to_dfa(alphabet_len),
        }
    }

    /// Parses a query from regex syntax over an existing alphabet.
    pub fn parse(
        expr: &str,
        alphabet: &Alphabet,
    ) -> Result<Self, pathlearn_automata::regex::ParseError> {
        Ok(Self::from_regex(
            &Regex::parse(expr, alphabet)?,
            alphabet.len(),
        ))
    }

    /// The canonical DFA.
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// The paper's query size: number of canonical-DFA states.
    pub fn size(&self) -> usize {
        self.dfa.num_states()
    }

    /// The equivalent prefix-free query (§2): the minimal representative
    /// of this query's equivalence class.
    pub fn prefix_free(&self) -> PathQuery {
        PathQuery {
            dfa: self.dfa.make_prefix_free(),
        }
    }

    /// `true` iff the language is prefix-free.
    pub fn is_prefix_free(&self) -> bool {
        self.dfa.is_prefix_free()
    }

    /// Language equivalence of the underlying regular languages.
    ///
    /// Note that the paper's *query equivalence* (`q(G) = q'(G)` for all
    /// `G`) is coarser: `a` and `a·b*` are equivalent queries with
    /// different languages. Query equivalence is exactly language equality
    /// of the prefix-free forms — see [`PathQuery::prefix_free`].
    pub fn equivalent_language(&self, other: &PathQuery) -> bool {
        self.dfa.equivalent(&other.dfa)
    }

    /// Evaluates the query on a graph: the selected node set
    /// `q(G) = {ν | L(q) ∩ paths_G(ν) ≠ ∅}`.
    pub fn eval(&self, graph: &GraphDb) -> BitSet {
        pathlearn_graph::eval::eval_monadic(&self.dfa, graph)
    }

    /// Whether the query selects one node.
    pub fn selects(&self, graph: &GraphDb, node: NodeId) -> bool {
        let paths = graph.paths_nfa(&[node]);
        !pathlearn_automata::product::dfa_nfa_intersection_is_empty(&self.dfa, &paths)
    }

    /// Fraction of nodes selected (Table 1's *selectivity*).
    pub fn selectivity(&self, graph: &GraphDb) -> f64 {
        pathlearn_graph::eval::selectivity(&self.dfa, graph)
    }

    /// Converts back to a regular expression (state elimination).
    pub fn to_regex(&self) -> Regex {
        dfa_to_regex(&self.dfa)
    }

    /// Pretty-prints the query as a regex over `alphabet`.
    pub fn display<'a>(&self, alphabet: &'a Alphabet) -> QueryDisplay<'a> {
        QueryDisplay {
            regex: self.to_regex(),
            alphabet,
        }
    }
}

/// Display adapter returned by [`PathQuery::display`].
pub struct QueryDisplay<'a> {
    regex: Regex,
    alphabet: &'a Alphabet,
}

impl fmt::Display for QueryDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.regex.display(self.alphabet))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathlearn_graph::graph::figure3_g0;

    #[test]
    fn query_size_matches_paper() {
        let graph = figure3_g0();
        let q = PathQuery::parse("(a·b)*·c", graph.alphabet()).unwrap();
        assert_eq!(q.size(), 3);
        assert!(q.is_prefix_free());
    }

    #[test]
    fn prefix_free_normalization() {
        // a ≡ a·b* as queries (§2).
        let alphabet = Alphabet::from_labels(["a", "b"]);
        let a = PathQuery::parse("a", &alphabet).unwrap();
        let ab_star = PathQuery::parse("a·b*", &alphabet).unwrap();
        assert!(!a.equivalent_language(&ab_star));
        assert_eq!(ab_star.prefix_free().dfa(), a.dfa());
    }

    #[test]
    fn query_equivalence_agrees_with_evaluation_on_g0() {
        let graph = figure3_g0();
        let a = PathQuery::parse("a", graph.alphabet()).unwrap();
        let ab_star = PathQuery::parse("a·b*", graph.alphabet()).unwrap();
        assert_eq!(a.eval(&graph), ab_star.eval(&graph));
    }

    #[test]
    fn selects_matches_eval() {
        let graph = figure3_g0();
        let q = PathQuery::parse("(a·b)*·c", graph.alphabet()).unwrap();
        let selected = q.eval(&graph);
        for node in graph.nodes() {
            assert_eq!(q.selects(&graph, node), selected.contains(node as usize));
        }
    }

    #[test]
    fn display_roundtrip() {
        let alphabet = Alphabet::from_labels(["a", "b", "c"]);
        let q = PathQuery::parse("(a·b)*·c", &alphabet).unwrap();
        let printed = q.display(&alphabet).to_string();
        let reparsed = PathQuery::parse(&printed.replace('ε', "eps"), &alphabet).unwrap();
        assert!(q.equivalent_language(&reparsed));
    }

    #[test]
    fn selectivity_on_g0() {
        let graph = figure3_g0();
        let q = PathQuery::parse("a", graph.alphabet()).unwrap();
        assert!((q.selectivity(&graph) - 6.0 / 7.0).abs() < 1e-12);
    }
}
