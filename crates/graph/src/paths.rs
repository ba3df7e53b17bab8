//! The path languages `paths_G(ν)` of graph nodes (paper §2).
//!
//! `paths_G(ν)` is the set of words matching some node sequence starting at
//! `ν`; it always contains `ε`, is prefix-closed, and is infinite iff a
//! cycle is reachable from `ν`. We expose it four ways (and the binary
//! language `paths2_G(ν, ν′)` as an NFA, [`paths2_nfa`]):
//!
//! 1. as an **all-accepting NFA** over the graph itself (for inclusion
//!    checks);
//! 2. as a **membership test** by set simulation (`O(|w|·|E|)`), and its
//!    inverse, the nodes that have a given path;
//! 3. as a **bounded canonical-order enumeration** of distinct words of
//!    length ≤ k, which the interactive `kS` strategy uses to count
//!    uncovered paths;
//! 4. as the right-hand side of a **product emptiness test** searched
//!    over the stored adjacency ([`PathsProduct`]) — Algorithm 1's merge
//!    oracle, which never materializes the NFA of (1).

use crate::graph::{Dir, GraphDb, NodeId, StepPlan};
use pathlearn_automata::rpni::MergeOracle;
use pathlearn_automata::{BitSet, Dfa, Nfa, StateId, Symbol, Word};
use std::ops::Range;

impl GraphDb {
    /// The NFA recognizing `paths_G(X) = ∪_{ν∈X} paths_G(ν)`: the graph
    /// itself with initial states `X` and every state accepting.
    pub fn paths_nfa(&self, sources: &[NodeId]) -> Nfa {
        let mut nfa = Nfa::from_edges(
            self.num_nodes().max(1),
            self.alphabet().len(),
            self.edges(),
            sources.iter().copied(),
            [],
        );
        nfa.set_all_final();
        nfa
    }

    /// `true` iff `word ∈ paths_G(sources)` (a node sequence matching
    /// `word` starts at some source).
    ///
    /// Double-buffered frontier simulation: two [`BitSet`]s total for the
    /// whole word, regardless of length.
    pub fn covers(&self, word: &[Symbol], sources: &[NodeId]) -> bool {
        let mut current =
            BitSet::from_indices(self.num_nodes(), sources.iter().map(|&s| s as usize));
        let mut next = BitSet::new(self.num_nodes());
        for &sym in word {
            if current.is_empty() {
                return false;
            }
            self.step_into(Dir::Out, StepPlan::Plain, &current, sym, &mut next);
            std::mem::swap(&mut current, &mut next);
        }
        !current.is_empty()
    }

    /// The nodes `ν` with `word ∈ paths_G(ν)`, written into `out`
    /// (capacity `num_nodes()`, as `scratch`): one backward step per
    /// symbol, right to left, from the nodes that have an out-edge
    /// labeled with the last one.
    pub fn nodes_with_path(&self, word: &[Symbol], out: &mut BitSet, scratch: &mut BitSet) {
        out.clear();
        let Some((&last, prefix)) = word.split_last() else {
            out.insert_all(); // ε is a path of every node
            return;
        };
        out.union_with(self.label_active(Dir::Out, last));
        for &sym in prefix.iter().rev() {
            self.step_into(Dir::In, StepPlan::Plain, out, sym, scratch);
            std::mem::swap(out, scratch);
        }
    }

    /// All **distinct** words of `paths_G(ν)` with length ≤ `max_len`, in
    /// canonical order, stopping after `limit` words.
    ///
    /// Distinct words are enumerated by walking the trie of paths: each
    /// trie node carries the set of graph nodes reachable by its word, so
    /// a word is emitted exactly once no matter how many node sequences
    /// match it. The trie has at most `Σ_{i≤k} |Σ|^i` nodes; `limit` caps
    /// pathological cases.
    pub fn enumerate_paths(&self, node: NodeId, max_len: usize, limit: usize) -> Vec<Word> {
        let mut out = Vec::new();
        let start = BitSet::from_indices(self.num_nodes(), [node as usize]);
        let mut frontier: Vec<(Word, BitSet)> = vec![(Vec::new(), start)];
        let mut scratch = BitSet::new(self.num_nodes());
        out.push(Vec::new()); // ε is always a path
        for _ in 0..max_len {
            if out.len() >= limit {
                break;
            }
            let mut next = Vec::new();
            for (word, set) in &frontier {
                for sym in self.alphabet().symbols() {
                    // Step into the scratch buffer; clone only survivors.
                    self.step_into(Dir::Out, StepPlan::Plain, set, sym, &mut scratch);
                    if scratch.is_empty() {
                        continue;
                    }
                    let mut extended = word.clone();
                    extended.push(sym);
                    out.push(extended.clone());
                    if out.len() >= limit {
                        return out;
                    }
                    next.push((extended, scratch.clone()));
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        out
    }

    /// `true` iff a cycle is reachable from `node` — equivalently, iff
    /// `paths_G(node)` is infinite (§2).
    pub fn has_infinite_paths(&self, node: NodeId) -> bool {
        // DFS with colors over the reachable subgraph.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.num_nodes()];
        // Iterative DFS: each frame holds its node's edge walk, fetched
        // once when the node is pushed and resumed where it stopped (the
        // walk merges any delta overlay and allocates nothing).
        let mut stack = vec![(node, self.edges_of(Dir::Out, node))];
        color[node as usize] = Color::Gray;
        while let Some((n, edges)) = stack.last_mut() {
            let Some((_, target)) = edges.next() else {
                color[*n as usize] = Color::Black;
                stack.pop();
                continue;
            };
            match color[target as usize] {
                Color::Gray => return true,
                Color::White => {
                    color[target as usize] = Color::Gray;
                    stack.push((target, self.edges_of(Dir::Out, target)));
                }
                Color::Black => {}
            }
        }
        false
    }
}

/// The NFA recognizing `paths2_G(ν, ν′)` (Appendix B): the graph with
/// initial `{ν}` and accepting `{ν′}`. Unlike `paths_G(ν)` it is not
/// prefix-closed, and it holds `ε` iff `ν = ν′`. It is the per-pair
/// reference that binary evaluation (`eval_binary_from`) is tested
/// against.
pub fn paths2_nfa(graph: &GraphDb, source: NodeId, target: NodeId) -> Nfa {
    Nfa::from_edges(
        graph.num_nodes().max(1),
        graph.alphabet().len(),
        graph.edges(),
        [source],
        [target],
    )
}

/// The emptiness test `L(dfa) ∩ paths_G(X) = ∅` — Algorithm 1 line 4's
/// merge oracle with `X = S⁻` — as a product BFS over the graph's own
/// adjacency ([`GraphDb::for_each_neighbor`], delta overlay included):
/// pairs `(q, ν)` from `{q₀} × X`, every graph node accepting. A pair
/// steps only the symbols `q` has a transition on, in symbol order, and
/// of those only the ones `ν` has an edge of, so it reads two offsets
/// per label actually stepped rather than `ν`'s cell in every label's
/// run. Same verdicts and visiting order as
/// `dfa_nfa_intersection_is_empty(dfa, &graph.paths_nfa(X))`, without
/// the NFA copy of the graph; the `seen` bitmap and the queue are reused
/// across tests and cleaned by undoing exactly what a test visited.
pub struct PathsProduct<'g> {
    graph: &'g GraphDb,
    sources: Vec<NodeId>,
    /// Bit `q·|V| + ν`; all-zero between tests.
    seen: Vec<u64>,
    /// Every pair visited by the running test (popped by index, so the
    /// clean-up can walk it).
    queue: Vec<(StateId, NodeId)>,
    /// The running test's DFA transitions, grouped by source state
    /// ([`PathsProduct::moves_of`]), and each state's span of them.
    moves: Vec<(Symbol, StateId)>,
    spans: Vec<Option<Range<usize>>>,
}

impl<'g> PathsProduct<'g> {
    /// The product against `paths_G(sources)`.
    pub fn new(graph: &'g GraphDb, sources: &[NodeId]) -> Self {
        PathsProduct {
            graph,
            sources: sources.to_vec(),
            seen: Vec::new(),
            queue: Vec::new(),
            moves: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Replaces the source set `X`.
    pub fn set_sources(&mut self, sources: &[NodeId]) {
        self.sources.clear();
        self.sources.extend_from_slice(sources);
    }

    /// `true` iff no word of `L(dfa)` is a path of a source node.
    pub fn is_disjoint(&mut self, dfa: &Dfa) -> bool {
        if dfa.num_states() == 0 {
            return true;
        }
        let nodes = self.graph.num_nodes();
        let words = (dfa.num_states() * nodes).div_ceil(u64::BITS as usize);
        if self.seen.len() < words {
            self.seen.resize(words, 0);
        }
        let disjoint = self.search(dfa, nodes);
        for &(q, node) in &self.queue {
            let pair = q as usize * nodes + node as usize;
            self.seen[pair / 64] = 0;
        }
        self.queue.clear();
        disjoint
    }

    /// The BFS proper; leaves its visited pairs in `seen` and `queue`.
    fn search(&mut self, dfa: &Dfa, nodes: usize) -> bool {
        let q0 = dfa.initial();
        if dfa.is_final(q0) && !self.sources.is_empty() {
            return false; // ε is a path of every source
        }
        for index in 0..self.sources.len() {
            self.visit(nodes, q0, self.sources[index]);
        }
        self.spans.clear();
        self.spans.resize(dfa.num_states(), None);
        self.moves.clear();
        let graph = self.graph;
        let mut head = 0;
        while let Some(&(q, node)) = self.queue.get(head) {
            head += 1;
            for at in self.moves_of(dfa, q) {
                let (sym, next) = self.moves[at];
                // Each move's cell lies in its own label's run; the
                // label's (overlay-exact) bitmap rules out most of them
                // with one bit, before any rank.
                if !graph.label_active(Dir::Out, sym).contains(node as usize) {
                    continue;
                }
                if dfa.is_final(next) {
                    return false;
                }
                graph.for_each_neighbor(Dir::Out, node, sym, |target| {
                    self.visit(nodes, next, target)
                });
            }
        }
        true
    }

    /// `q`'s transitions as `(symbol, target)` pairs in symbol order, a
    /// span of `moves` listed the first time the test pops `q`: every
    /// later pair at `q` reads its few moves instead of a whole row of
    /// the dense table, and a state the test never reaches costs
    /// nothing. Symbols beyond the DFA's alphabet cannot occur in
    /// `L(dfa)` (and would alias into its table); beyond the graph's,
    /// no edge carries them.
    fn moves_of(&mut self, dfa: &Dfa, q: StateId) -> Range<usize> {
        if let Some(span) = &self.spans[q as usize] {
            return span.clone();
        }
        let start = self.moves.len();
        let symbols =
            (0..dfa.alphabet_len().min(self.graph.alphabet().len())).map(Symbol::from_index);
        self.moves
            .extend(symbols.filter_map(|sym| Some((sym, dfa.step(q, sym)?))));
        let span = start..self.moves.len();
        self.spans[q as usize] = Some(span.clone());
        span
    }

    /// Enqueues `(q, node)` unless it was already visited.
    #[inline]
    fn visit(&mut self, nodes: usize, q: StateId, node: NodeId) {
        let pair = q as usize * nodes + node as usize;
        let (word, bit) = (pair / 64, 1u64 << (pair % 64));
        if self.seen[word] & bit == 0 {
            self.seen[word] |= bit;
            self.queue.push((q, node));
        }
    }
}

impl MergeOracle for PathsProduct<'_> {
    fn is_consistent(&mut self, candidate: &Dfa) -> bool {
        self.is_disjoint(candidate)
    }
}

#[cfg(test)]
mod tests {

    use crate::graph::figure3_g0;
    use pathlearn_automata::word::{canonical_cmp, format_word};

    #[test]
    fn paths_nfa_accepts_prefix_closed_language() {
        let graph = figure3_g0();
        let alphabet = graph.alphabet();
        let v1 = graph.node_id("v1").unwrap();
        let nfa = graph.paths_nfa(&[v1]);
        for text in ["", "a", "a b", "a b c", "b", "b a"] {
            let word = alphabet.parse_word(text).unwrap();
            assert!(nfa.accepts(&word), "{text:?} should be a path of v1");
        }
        // c is not a path of v1 (no c-edge at v1).
        let c = alphabet.parse_word("c").unwrap();
        assert!(!nfa.accepts(&c));
    }

    #[test]
    fn paths2_basic_membership() {
        let graph = figure3_g0();
        let alphabet = graph.alphabet();
        let v1 = graph.node_id("v1").unwrap();
        let v4 = graph.node_id("v4").unwrap();
        let abc = alphabet.parse_word("a b c").unwrap();
        let nfa = super::paths2_nfa(&graph, v1, v4);
        assert!(nfa.accepts(&abc));
        assert!(!nfa.accepts(&alphabet.parse_word("a b").unwrap()));
        assert!(!super::paths2_nfa(&graph, v4, v1).accepts(&abc));
        // ε only relates a node to itself.
        assert!(super::paths2_nfa(&graph, v1, v1).accepts(&[]));
        assert!(!nfa.accepts(&[]));
    }

    #[test]
    fn covers_matches_nfa() {
        let graph = figure3_g0();
        let v2 = graph.node_id("v2").unwrap();
        let v7 = graph.node_id("v7").unwrap();
        let nfa = graph.paths_nfa(&[v2, v7]);
        for word in pathlearn_automata::word::enumerate_words(3, 4) {
            assert_eq!(
                graph.covers(&word, &[v2, v7]),
                nfa.accepts(&word),
                "{}",
                format_word(&word, graph.alphabet())
            );
        }
    }

    #[test]
    fn negative_nodes_cover_characteristic_words() {
        // §3.3: the negatives {ν2, ν7} jointly cover every word ≤ abc that
        // has no prefix in L((a·b)*·c).
        let graph = figure3_g0();
        let alphabet = graph.alphabet();
        let v2 = graph.node_id("v2").unwrap();
        let v7 = graph.node_id("v7").unwrap();
        for text in [
            "", "a", "b", "a a", "a b", "a c", "b a", "b b", "b c", "a a a", "a a b", "a a c",
            "a b a", "a b b",
        ] {
            let word = alphabet.parse_word(text).unwrap();
            assert!(
                graph.covers(&word, &[v2, v7]),
                "negatives must cover {text:?}"
            );
        }
        // ...but no word of L((a·b)*·c):
        for text in ["c", "a b c", "a b a b c"] {
            let word = alphabet.parse_word(text).unwrap();
            assert!(!graph.covers(&word, &[v2, v7]), "{text:?}");
        }
    }

    #[test]
    fn enumerate_paths_is_canonical_and_distinct() {
        let graph = figure3_g0();
        let v1 = graph.node_id("v1").unwrap();
        let paths = graph.enumerate_paths(v1, 3, 1000);
        // Sorted in canonical order, no duplicates.
        for pair in paths.windows(2) {
            assert!(canonical_cmp(&pair[0], &pair[1]).is_lt());
        }
        // Every enumerated word is a path; abc is among them.
        let nfa = graph.paths_nfa(&[v1]);
        for word in &paths {
            assert!(nfa.accepts(word));
        }
        let abc = graph.alphabet().parse_word("a b c").unwrap();
        assert!(paths.contains(&abc));
    }

    #[test]
    fn enumerate_paths_respects_limit() {
        let graph = figure3_g0();
        let v1 = graph.node_id("v1").unwrap();
        let paths = graph.enumerate_paths(v1, 5, 7);
        assert_eq!(paths.len(), 7);
    }

    #[test]
    fn paths_of_sink_is_epsilon_only() {
        let graph = figure3_g0();
        let v4 = graph.node_id("v4").unwrap();
        let paths = graph.enumerate_paths(v4, 4, 100);
        assert_eq!(paths, vec![Vec::new()]);
        assert!(!graph.has_infinite_paths(v4));
    }

    #[test]
    fn v1_has_infinite_paths() {
        // §2: paths_G0(ν1) is infinite.
        let graph = figure3_g0();
        assert!(graph.has_infinite_paths(graph.node_id("v1").unwrap()));
        // ν5 only reaches the sink ν4: finite.
        assert!(!graph.has_infinite_paths(graph.node_id("v5").unwrap()));
    }

    #[test]
    fn an_overlay_edge_that_closes_the_only_cycle_makes_paths_infinite() {
        let graph = figure3_g0();
        let id = |name: &str| graph.node_id(name).unwrap();
        let c = graph.alphabet().symbol("c").unwrap();
        // ν5 reaches only the sink ν4; an overlay c-edge ν4 → ν5 is the
        // one edge of the cycle ν5 → ν4 → ν5, and the DFS must follow it
        // out of ν4's merged walk.
        let closed = graph.with_delta(&[(id("v4"), c, id("v5"))], &[]).unwrap();
        for start in ["v4", "v5"] {
            assert!(!graph.has_infinite_paths(id(start)), "{start} on G0");
            assert!(
                closed.has_infinite_paths(id(start)),
                "{start} on the overlay"
            );
            assert!(closed.compact().has_infinite_paths(id(start)));
        }
        // Removing the base half of the cycle (both ν5 → ν4 edges) again
        // leaves ν5 without an infinite path; ν4 → ν5 is a dead end then.
        let a = graph.alphabet().symbol("a").unwrap();
        let b = graph.alphabet().symbol("b").unwrap();
        let cut = closed
            .with_delta(&[], &[(id("v5"), a, id("v4")), (id("v5"), b, id("v4"))])
            .unwrap();
        assert!(!cut.has_infinite_paths(id("v4")));
        assert!(!cut.has_infinite_paths(id("v5")));
    }
}
