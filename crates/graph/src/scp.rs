//! Smallest consistent paths (Algorithm 1, lines 1–2).
//!
//! For a positive node `ν`, the SCP is
//! `min_≤ ( paths_G(ν) \ paths_G(S⁻) )` — the canonically smallest path of
//! `ν` not covered by any negative node — searched only up to length `k`
//! (the paper bounds SCP length to sidestep the infinite enumeration of
//! Figure 5 and the intractability of consistency checking).
//!
//! ## Search strategy
//!
//! Both sides of the set difference are *determinized on the fly*:
//!
//! * the positive side is the set of graph nodes reachable from `ν` by the
//!   current word (`w ∈ paths_G(ν)` iff the set is non-empty);
//! * the negative side is the set of nodes reachable from `S⁻`
//!   (`w ∉ paths_G(S⁻)` iff the set is empty — path languages are
//!   prefix-closed, so once empty, always empty).
//!
//! A BFS over `(pos-set, neg-set)` pairs, expanding symbols in alphabet
//! order, therefore visits words in canonical order and the first state
//! with a dead negative side yields the SCP. The negative side depends
//! only on the word, never on `ν`, so its successor function is memoized
//! in a [`NegCache`] shared across all positive nodes of a sample — the
//! `bench_scp` ablation measures this choice.

use crate::graph::{Dir, GraphDb, NodeId};
use pathlearn_automata::{BitSet, Symbol, Word};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Memoized deterministic view of the negative side: maps reach-sets of
/// `S⁻` to dense state ids and caches per-symbol successors.
pub struct NegCache<'g> {
    graph: &'g GraphDb,
    states: Vec<BitSet>,
    index: HashMap<BitSet, u32>,
    /// `succ[state][symbol]`: `None` = not yet computed; `Some(None)` =
    /// successor set is empty (word leaves `paths_G(S⁻)`);
    /// `Some(Some(id))` = successor state.
    succ: Vec<Vec<Option<Option<u32>>>>,
    /// Reusable step buffer: uncached steps land here first and are only
    /// cloned into `states` when the reach-set is genuinely new.
    scratch: BitSet,
}

impl<'g> NegCache<'g> {
    /// Creates the cache rooted at the reach-set `S⁻`.
    pub fn new(graph: &'g GraphDb, negatives: &[NodeId]) -> Self {
        let root = BitSet::from_indices(graph.num_nodes(), negatives.iter().map(|&n| n as usize));
        let mut cache = NegCache {
            graph,
            states: Vec::new(),
            index: HashMap::new(),
            succ: Vec::new(),
            scratch: BitSet::new(graph.num_nodes()),
        };
        cache.intern(root);
        cache
    }

    /// The root state (reach-set of `S⁻` itself); `None` when `S⁻ = ∅`,
    /// in which case **every** word is uncovered.
    pub fn root(&self) -> Option<u32> {
        if self.states[0].is_empty() {
            None
        } else {
            Some(0)
        }
    }

    /// Number of memoized reach-sets (diagnostics / benches).
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    fn intern(&mut self, set: BitSet) -> u32 {
        if let Some(&id) = self.index.get(&set) {
            return id;
        }
        let id = self.states.len() as u32;
        self.index.insert(set.clone(), id);
        self.states.push(set);
        self.succ.push(vec![None; self.graph.alphabet().len()]);
        id
    }

    /// Deterministic step; `None` means the word has left `paths_G(S⁻)`.
    ///
    /// Uncached steps run the frontier kernel into the reusable scratch
    /// buffer; the result is cloned only when it is a reach-set never
    /// seen before (cache hits on the *set*, not just the transition,
    /// stay allocation-free).
    pub fn step(&mut self, state: u32, sym: Symbol) -> Option<u32> {
        if let Some(cached) = self.succ[state as usize][sym.index()] {
            return cached;
        }
        let from = &self.states[state as usize];
        self.graph
            .step_into(Dir::Out, false, from, sym, &mut self.scratch);
        let result = if self.scratch.is_empty() {
            None
        } else if let Some(&id) = self.index.get(&self.scratch) {
            Some(id)
        } else {
            Some(self.intern(self.scratch.clone()))
        };
        self.succ[state as usize][sym.index()] = Some(result);
        result
    }
}

/// Upper bound on distinct search states per SCP call (safety valve for
/// adversarial `k`/graph combinations; see [`ScpFinder::scp`]).
pub const SCP_STATE_BUDGET: usize = 250_000;

/// Finds smallest consistent paths for the positive nodes of a sample,
/// sharing the negative-side cache across calls.
///
/// The positive side's sparse reach-sets are **interned**: each distinct
/// sorted node vector is stored once in an arena and addressed by a dense
/// `u32` id, so the BFS `seen` set holds hashed `(pos-id, neg-id)` pairs
/// packed into a `u64` instead of cloning node vectors per visited state.
/// The arena persists across [`ScpFinder::scp`] calls, so reach-sets
/// shared between positive nodes of the same sample are stored (and
/// hashed at full length) only once.
///
/// The interned store uses `Arc` (not `Rc`), so a finder is `Send`: the
/// learner's parallel SCP fan-out moves per-thread finders into pool
/// tasks (caches are per-finder — threads share the graph, not the
/// memo tables).
pub struct ScpFinder<'g> {
    graph: &'g GraphDb,
    neg: NegCache<'g>,
    /// Arena of interned sparse positive reach-sets, addressed by id;
    /// the `Arc` is shared with the index map, so each distinct set is
    /// stored exactly once.
    pos_sets: Vec<Arc<[NodeId]>>,
    pos_index: HashMap<Arc<[NodeId]>, u32>,
    /// Reusable sparse-step buffer (cloned only when interned as new).
    scratch: Vec<NodeId>,
}

impl<'g> ScpFinder<'g> {
    /// Creates a finder for a fixed negative node set.
    pub fn new(graph: &'g GraphDb, negatives: &[NodeId]) -> Self {
        ScpFinder {
            graph,
            neg: NegCache::new(graph, negatives),
            pos_sets: Vec::new(),
            pos_index: HashMap::new(),
            scratch: Vec::new(),
        }
    }

    /// Interns the scratch buffer's current contents, cloning only when
    /// the set was never seen before.
    fn intern_scratch(&mut self) -> u32 {
        if let Some(&id) = self.pos_index.get(self.scratch.as_slice()) {
            return id;
        }
        let id = self.pos_sets.len() as u32;
        let set: Arc<[NodeId]> = Arc::from(self.scratch.as_slice());
        self.pos_index.insert(Arc::clone(&set), id);
        self.pos_sets.push(set);
        id
    }

    /// The SCP of `node` among paths of length ≤ `max_len`, or `None` if
    /// every such path is covered by the negatives.
    ///
    /// The BFS visits at most [`SCP_STATE_BUDGET`] distinct
    /// (pos-set, neg-state) pairs; beyond that it gives up and reports
    /// `None`, exactly like an exceeded `k` bound — the state space is
    /// `O(|Σ|^k)` in the worst case and the paper's practical `k ≤ 4`
    /// keeps real searches far below the budget (asserted by benches).
    ///
    /// ```
    /// use pathlearn_graph::graph::figure3_g0;
    /// use pathlearn_graph::ScpFinder;
    ///
    /// // Paper §3.2: with S⁻ = {ν2, ν7}, the SCP of ν3 is the path c.
    /// let graph = figure3_g0();
    /// let negatives = [graph.node_id("v2").unwrap(), graph.node_id("v7").unwrap()];
    /// let mut finder = ScpFinder::new(&graph, &negatives);
    /// let scp = finder.scp(graph.node_id("v3").unwrap(), 3).unwrap();
    /// assert_eq!(scp, graph.alphabet().parse_word("c").unwrap());
    /// ```
    pub fn scp(&mut self, node: NodeId, max_len: usize) -> Option<Word> {
        let Some(neg_root) = self.neg.root() else {
            return Some(Vec::new()); // S⁻ = ∅: ε is consistent
        };
        // The positive side is sparse (starts from one node); the negative
        // side is the memoized dense cache. States are (pos-id, neg-id)
        // pairs packed into u64 keys.
        self.scratch.clear();
        self.scratch.push(node);
        let start = self.intern_scratch();
        let key = |pos: u32, neg: u32| (u64::from(pos) << 32) | u64::from(neg);
        let mut seen: HashSet<u64> = HashSet::new();
        let mut queue: VecDeque<(u32, u32, Word)> = VecDeque::new();
        seen.insert(key(start, neg_root));
        queue.push_back((start, neg_root, Vec::new()));

        while let Some((pos, neg, word)) = queue.pop_front() {
            if seen.len() > SCP_STATE_BUDGET {
                return None;
            }
            if word.len() >= max_len {
                continue;
            }
            for sym in self.graph.alphabet().symbols() {
                self.graph
                    .step_sparse_into(&self.pos_sets[pos as usize], sym, &mut self.scratch);
                if self.scratch.is_empty() {
                    continue; // word·sym ∉ paths_G(node)
                }
                let mut next_word = word.clone();
                next_word.push(sym);
                match self.neg.step(neg, sym) {
                    None => return Some(next_word), // uncovered: SCP found
                    Some(neg_next) => {
                        let pos_next = self.intern_scratch();
                        if seen.insert(key(pos_next, neg_next)) {
                            queue.push_back((pos_next, neg_next, next_word));
                        }
                    }
                }
            }
        }
        None
    }

    /// `true` iff `node` has at least one path of length ≤ `k` not covered
    /// by the negatives — the paper's **k-informative** test (§4.2).
    pub fn is_k_informative(&mut self, node: NodeId, k: usize) -> bool {
        self.scp(node, k).is_some()
    }

    /// Counts the distinct uncovered paths of `node` of length ≤ `k`,
    /// stopping at `cap`. Drives the `kS` strategy (§4.2), which prefers
    /// nodes with the *fewest* uncovered k-paths.
    ///
    /// Distinct words are counted by walking the path trie (no
    /// determinization of the positive side across words — two different
    /// words are distinct paths even if they reach the same node set).
    pub fn count_uncovered(&mut self, node: NodeId, k: usize, cap: usize) -> usize {
        let root = self.neg.root();
        let mut count = 0usize;
        if root.is_none() {
            count += 1; // ε uncovered
            if count >= cap {
                return count;
            }
        }
        // Trie frontier: (interned pos-set id, neg-state or dead). Two
        // words reaching the same pair stay as distinct entries — the
        // walk counts words, not states — but interning still keeps one
        // copy of each distinct reach-set.
        self.scratch.clear();
        self.scratch.push(node);
        let start = self.intern_scratch();
        let mut frontier: Vec<(u32, Option<u32>)> = vec![(start, root)];
        let mut next: Vec<(u32, Option<u32>)> = Vec::new();
        for _ in 0..k {
            next.clear();
            for index in 0..frontier.len() {
                let (pos, neg) = frontier[index];
                for sym in self.graph.alphabet().symbols() {
                    self.graph.step_sparse_into(
                        &self.pos_sets[pos as usize],
                        sym,
                        &mut self.scratch,
                    );
                    if self.scratch.is_empty() {
                        continue;
                    }
                    let neg_next = neg.and_then(|s| self.neg.step(s, sym));
                    if neg_next.is_none() {
                        count += 1;
                        if count >= cap {
                            return count;
                        }
                    }
                    next.push((self.intern_scratch(), neg_next));
                }
            }
            if next.is_empty() {
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        count
    }
}

/// Reference SCP by naive enumeration (tests / benches): enumerate the
/// paths of `node` in canonical order and return the first not covered by
/// the negatives.
pub fn scp_naive(
    graph: &GraphDb,
    node: NodeId,
    negatives: &[NodeId],
    max_len: usize,
) -> Option<Word> {
    let limit = 1_000_000;
    graph
        .enumerate_paths(node, max_len, limit)
        .into_iter()
        .find(|w| !graph.covers(w, negatives))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{figure3_g0, GraphBuilder};
    use pathlearn_automata::Alphabet;

    #[test]
    fn paper_scps_on_g0() {
        // §3.2: with S⁺={ν1,ν3}, S⁻={ν2,ν7} the SCPs are abc (ν1), c (ν3).
        let graph = figure3_g0();
        let alphabet = graph.alphabet().clone();
        let v1 = graph.node_id("v1").unwrap();
        let v3 = graph.node_id("v3").unwrap();
        let v2 = graph.node_id("v2").unwrap();
        let v7 = graph.node_id("v7").unwrap();
        let mut finder = ScpFinder::new(&graph, &[v2, v7]);
        assert_eq!(
            finder.scp(v1, 3),
            Some(alphabet.parse_word("a b c").unwrap())
        );
        assert_eq!(finder.scp(v3, 3), Some(alphabet.parse_word("c").unwrap()));
    }

    #[test]
    fn scp_matches_naive_enumeration() {
        let graph = figure3_g0();
        let v2 = graph.node_id("v2").unwrap();
        let v7 = graph.node_id("v7").unwrap();
        let mut finder = ScpFinder::new(&graph, &[v2, v7]);
        for node in graph.nodes() {
            for k in 0..=4 {
                assert_eq!(
                    finder.scp(node, k),
                    scp_naive(&graph, node, &[v2, v7], k),
                    "node {node}, k {k}"
                );
            }
        }
    }

    #[test]
    fn figure5_inconsistent_sample_has_no_scp() {
        // Figure 5: a positive node whose every path is covered by the two
        // negatives: + --a--> x --b--> y with negatives covering a·b* ...
        // Reconstruction: positive p with edges matching the negatives'.
        let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(["a", "b"]));
        // positive node: a-loop into b-loop structure
        builder.add_edge("p", "a", "p2");
        builder.add_edge("p2", "b", "p2");
        // negative 1 covers a·b^i
        builder.add_edge("n1", "a", "n1b");
        builder.add_edge("n1b", "b", "n1b");
        // negative 2 covers ε (trivially) — any node does.
        builder.add_node("n2");
        let graph = builder.build();
        let p = graph.node_id("p").unwrap();
        let n1 = graph.node_id("n1").unwrap();
        let n2 = graph.node_id("n2").unwrap();
        let mut finder = ScpFinder::new(&graph, &[n1, n2]);
        // Every path of p (ε, a, ab, abb, ...) is covered by {n1, n2}.
        for k in 0..=8 {
            assert_eq!(finder.scp(p, k), None, "k={k}");
        }
    }

    #[test]
    fn empty_negatives_make_epsilon_the_scp() {
        let graph = figure3_g0();
        let mut finder = ScpFinder::new(&graph, &[]);
        assert_eq!(finder.scp(0, 3), Some(Vec::new()));
    }

    #[test]
    fn bound_k_can_hide_scps() {
        // ν1's SCP has length 3; with k=2 it is not found.
        let graph = figure3_g0();
        let v1 = graph.node_id("v1").unwrap();
        let v2 = graph.node_id("v2").unwrap();
        let v7 = graph.node_id("v7").unwrap();
        let mut finder = ScpFinder::new(&graph, &[v2, v7]);
        assert_eq!(finder.scp(v1, 2), None);
        assert!(finder.scp(v1, 3).is_some());
    }

    #[test]
    fn k_informative_and_counts() {
        let graph = figure3_g0();
        let v1 = graph.node_id("v1").unwrap();
        let v2 = graph.node_id("v2").unwrap();
        let v3 = graph.node_id("v3").unwrap();
        let v7 = graph.node_id("v7").unwrap();
        let mut finder = ScpFinder::new(&graph, &[v2, v7]);
        assert!(finder.is_k_informative(v3, 1)); // path c
        assert!(!finder.is_k_informative(v1, 2));
        assert!(finder.is_k_informative(v1, 3));
        // count_uncovered agrees with enumerate+covers.
        for node in graph.nodes() {
            for k in 0..=3 {
                let expected = graph
                    .enumerate_paths(node, k, 100_000)
                    .into_iter()
                    .filter(|w| !graph.covers(w, &[v2, v7]))
                    .count();
                assert_eq!(
                    finder.count_uncovered(node, k, usize::MAX),
                    expected,
                    "node {node} k {k}"
                );
            }
        }
    }

    #[test]
    fn count_respects_cap() {
        let graph = figure3_g0();
        let v3 = graph.node_id("v3").unwrap();
        let mut finder = ScpFinder::new(&graph, &[]);
        assert_eq!(finder.count_uncovered(v3, 4, 5), 5);
    }

    #[test]
    fn finder_is_send() {
        // The learner's parallel fan-out moves finders into pool tasks;
        // this is a compile-time property (Arc-interned store, no Rc).
        fn assert_send<T: Send>() {}
        assert_send::<ScpFinder<'static>>();
        assert_send::<NegCache<'static>>();
    }

    #[test]
    fn neg_cache_is_shared_across_nodes() {
        let graph = figure3_g0();
        let v2 = graph.node_id("v2").unwrap();
        let v7 = graph.node_id("v7").unwrap();
        let mut finder = ScpFinder::new(&graph, &[v2, v7]);
        for node in graph.nodes() {
            let _ = finder.scp(node, 3);
        }
        let states_after_first_pass = finder.neg.num_states();
        for node in graph.nodes() {
            let _ = finder.scp(node, 3);
        }
        // Second pass adds no new negative reach-sets.
        assert_eq!(finder.neg.num_states(), states_after_first_pass);
    }
}
